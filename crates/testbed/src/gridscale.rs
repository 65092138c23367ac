//! The grid-scale figure: deterministic multi-client replay sweeps.
//!
//! Every prior figure measures one transfer at a time. This harness runs
//! the paper's testbed as a *grid*: N concurrent clients (seeded arrival
//! times, Zipf file popularity — see [`crate::workload::grid_workload`])
//! replayed through [`DataGrid::replay_concurrent`] against one shared
//! simulator, so selection decisions are made while other clients'
//! transfers are consuming the links being scored.
//!
//! Each sweep cell builds its own grid from its own seed fork, which
//! makes cells independent: [`run_grid_scale`] fans them out with
//! [`crate::par::par_map`] and the output is byte-identical for any
//! `DATAGRID_JOBS` worker count. The per-cell numbers (fetches/sec,
//! latency percentiles, solver settle counters, failover counts, scratch
//! high-water marks) render into the deterministic `BENCH_grid.json`
//! body via [`GridScaleReport::render_json`].
//!
//! Every cell also carries the grid's continuous telemetry: a sim-time
//! health timeline ([`datagrid_obs::timeline`]) attached after warm-up,
//! and the replay driver's phase profiler ([`datagrid_obs::prof`]) read
//! back after the run. Those add the replay-scoped hot-path counters —
//! decisions and settles per simulated second, solver passes per
//! decision, score-scratch hits and misses, per-phase call/item counts —
//! that `ci/grid_budget.json` gates. With the `prof-timing` feature,
//! per-phase wall-clock milliseconds are added; those fields, and only
//! those, vary run to run.

use std::fmt::Write as _;

use datagrid_core::prelude::{DataGrid, FetchOptions, RecoveryOptions, SelectionMode};
use datagrid_obs::prof::TIMING_ENABLED;
use datagrid_obs::PhaseStat;
use datagrid_simnet::stats::percentile;
use datagrid_simnet::time::SimDuration;

use crate::experiment::{obs_dump, ObsDump};
use crate::par::par_map;
use crate::sites::{paper_testbed, HIT_HOSTS, LIZEN_HOSTS, THU_HOSTS};
use crate::workload::{grid_workload, GridWorkload, GridWorkloadSpec};

/// Sim-time width of each health-timeline window. The timeline only
/// observes, so the width changes no other cell number.
const TIMELINE_WINDOW: SimDuration = SimDuration::from_secs(60);

/// Configuration of one grid-scale sweep (everything except the client
/// count, which is the sweep axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridScaleConfig {
    /// Logical files in each cell's generated catalog.
    pub files: usize,
    /// Replica placements per file.
    pub replicas_per_file: usize,
    /// Median file size in bytes.
    pub median_bytes: u64,
    /// Fetches issued by each client.
    pub requests_per_client: usize,
    /// Mean client inter-arrival time.
    pub mean_inter_arrival: SimDuration,
    /// Sensor warm-up before the replay starts.
    pub warm: SimDuration,
    /// How the selection server reads `BW_P` during the replay.
    pub mode: SelectionMode,
    /// Parallel TCP streams per transfer (0 = stream mode).
    pub parallelism: u32,
    /// Verify the max-min certificate: enable the engine's per-solve
    /// enforcement for the whole cell and re-check the settled allocation
    /// after the replay. Costs solver time; never changes the numbers, so
    /// `BENCH_grid.json` stays byte-identical either way.
    pub verify: bool,
    /// Batch same-instant event cohorts into one solver settle (the
    /// engine default). `false` forces the per-event solve path — the
    /// differential-testing half of the batching-equivalence property:
    /// every public number must be identical either way.
    pub batching: bool,
}

impl Default for GridScaleConfig {
    fn default() -> Self {
        GridScaleConfig {
            files: 48,
            replicas_per_file: 2,
            median_bytes: 4 << 20,
            requests_per_client: 1,
            mean_inter_arrival: SimDuration::from_secs(2),
            warm: SimDuration::from_secs(60),
            mode: SelectionMode::ContentionAware,
            parallelism: 0,
            verify: false,
            batching: true,
        }
    }
}

/// The deterministic numbers of one sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub struct GridScaleCell {
    /// Concurrent clients replayed in this cell.
    pub clients: usize,
    /// Selection mode label (`"static"` / `"contention-aware"`).
    pub mode: &'static str,
    /// Fetches submitted.
    pub fetches: usize,
    /// Fetches that delivered their full file.
    pub completed: usize,
    /// Fetches that exhausted every candidate.
    pub failed: usize,
    /// Replicas abandoned in favour of the next-best candidate.
    pub failovers: u64,
    /// Simulated seconds from replay start to the last terminal state.
    pub makespan_s: f64,
    /// Completed fetches per simulated second.
    pub fetches_per_sec: f64,
    /// Median fetch latency (submission → terminal), seconds.
    pub p50_s: f64,
    /// 95th-percentile fetch latency, seconds.
    pub p95_s: f64,
    /// 99th-percentile fetch latency, seconds.
    pub p99_s: f64,
    /// Component-scoped rate solves performed by the engine.
    pub incremental_solves: u64,
    /// Whole-grid rate solves performed by the engine.
    pub full_solves: u64,
    /// Total flows handed to the solver across all solves.
    pub solver_flows_touched: u64,
    /// Same-instant event cohorts the engine processed.
    pub event_cohorts: u64,
    /// Cohorts whose deferred rate changes settled in one solve.
    pub batched_solves: u64,
    /// Solver passes the cohort batching eliminated.
    pub solves_avoided: u64,
    /// Scratch element capacity left by the burst, before compaction.
    pub scratch_high_water: usize,
    /// Scratch element capacity after [`DataGrid::shrink_network_scratch`].
    pub scratch_after_shrink: usize,
    /// Selection decisions made (initial picks plus failover re-picks).
    pub decisions: u64,
    /// Decisions per simulated second of makespan.
    pub decisions_per_sec: f64,
    /// Events settled by the replay driver (the `settle` phase's calls).
    pub settles: u64,
    /// Settles per simulated second of makespan.
    pub settles_per_sec: f64,
    /// Solver passes (incremental + full) the replay itself ran, warm-up
    /// excluded — unlike the lifetime `incremental_solves + full_solves`.
    pub replay_solves: u64,
    /// Replay solver passes per selection decision: how much solver work
    /// one client arrival costs. Cohort batching and the score scratch
    /// both push this down.
    pub solves_per_decision: f64,
    /// Candidate rankings served from the reusable score scratch.
    pub scratch_hits: u64,
    /// Candidate rankings that had to be recomputed.
    pub scratch_misses: u64,
    /// Health-timeline windows the replay spanned.
    pub windows: usize,
    /// The replay driver's phase profile, depth-first.
    pub phases: Vec<PhaseStat>,
}

/// One executed cell: the numbers plus every rendered telemetry surface
/// of the cell's grid.
#[derive(Debug, Clone)]
pub struct GridScaleRun {
    /// The deterministic cell numbers.
    pub cell: GridScaleCell,
    /// The cell's health timeline as deterministic JSON.
    pub timeline_json: String,
    /// The rendered grid health report (per-window table + hottest links).
    pub health_report: String,
    /// The phase profile as a text table.
    pub prof_text: String,
    /// The cell grid's observability export.
    pub obs: ObsDump,
}

/// A whole sweep, ready to render as `BENCH_grid.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct GridScaleReport {
    /// The sweep's base seed.
    pub seed: u64,
    /// One entry per sweep cell, in input order.
    pub cells: Vec<GridScaleCell>,
}

impl GridScaleReport {
    /// Collects the cells of executed runs (in order).
    pub fn from_runs(seed: u64, runs: &[GridScaleRun]) -> Self {
        GridScaleReport {
            seed,
            cells: runs.iter().map(|r| r.cell.clone()).collect(),
        }
    }

    /// Renders the `BENCH_grid.json` body. In default builds it is
    /// deterministic: same seed (and any `DATAGRID_JOBS`) ⇒ byte-identical
    /// output. With `prof-timing` the per-phase `total_ms`/`self_ms`
    /// fields are added and the top-level `"timing"` flag flips to `true`.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"name\": \"grid-scale\",\n");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"timing\": {TIMING_ENABLED},");
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"clients\": {},", c.clients);
            let _ = writeln!(out, "      \"mode\": \"{}\",", c.mode);
            let _ = writeln!(out, "      \"fetches\": {},", c.fetches);
            let _ = writeln!(out, "      \"completed\": {},", c.completed);
            let _ = writeln!(out, "      \"failed\": {},", c.failed);
            let _ = writeln!(out, "      \"failovers\": {},", c.failovers);
            let _ = writeln!(out, "      \"makespan_s\": {:.6},", c.makespan_s);
            let _ = writeln!(out, "      \"fetches_per_sec\": {:.6},", c.fetches_per_sec);
            let _ = writeln!(out, "      \"latency_p50_s\": {:.6},", c.p50_s);
            let _ = writeln!(out, "      \"latency_p95_s\": {:.6},", c.p95_s);
            let _ = writeln!(out, "      \"latency_p99_s\": {:.6},", c.p99_s);
            let _ = writeln!(
                out,
                "      \"incremental_solves\": {},",
                c.incremental_solves
            );
            let _ = writeln!(out, "      \"full_solves\": {},", c.full_solves);
            let _ = writeln!(
                out,
                "      \"solver_flows_touched\": {},",
                c.solver_flows_touched
            );
            let _ = writeln!(out, "      \"event_cohorts\": {},", c.event_cohorts);
            let _ = writeln!(out, "      \"batched_solves\": {},", c.batched_solves);
            let _ = writeln!(out, "      \"solves_avoided\": {},", c.solves_avoided);
            let _ = writeln!(
                out,
                "      \"scratch_high_water\": {},",
                c.scratch_high_water
            );
            let _ = writeln!(
                out,
                "      \"scratch_after_shrink\": {},",
                c.scratch_after_shrink
            );
            let _ = writeln!(out, "      \"decisions\": {},", c.decisions);
            let _ = writeln!(
                out,
                "      \"decisions_per_sec\": {:.6},",
                c.decisions_per_sec
            );
            let _ = writeln!(out, "      \"settles\": {},", c.settles);
            let _ = writeln!(out, "      \"settles_per_sec\": {:.6},", c.settles_per_sec);
            let _ = writeln!(out, "      \"replay_solves\": {},", c.replay_solves);
            let _ = writeln!(
                out,
                "      \"solves_per_decision\": {:.6},",
                c.solves_per_decision
            );
            let _ = writeln!(out, "      \"scratch_hits\": {},", c.scratch_hits);
            let _ = writeln!(out, "      \"scratch_misses\": {},", c.scratch_misses);
            let _ = writeln!(out, "      \"windows\": {},", c.windows);
            out.push_str("      \"phases\": [\n");
            for (j, p) in c.phases.iter().enumerate() {
                let _ = write!(
                    out,
                    "        {{\"path\": \"{}\", \"depth\": {}, \"calls\": {}, \"items\": {}",
                    p.path, p.depth, p.calls, p.items
                );
                if TIMING_ENABLED {
                    let _ = write!(
                        out,
                        ", \"total_ms\": {:.3}, \"self_ms\": {:.3}",
                        p.total_ns as f64 / 1e6,
                        p.self_ns as f64 / 1e6
                    );
                }
                out.push_str(if j + 1 == c.phases.len() {
                    "}\n"
                } else {
                    "},\n"
                });
            }
            out.push_str("      ]\n");
            out.push_str(if i + 1 == self.cells.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// All twelve paper-testbed hosts, THU then Li-Zen then HIT.
pub fn all_paper_hosts() -> Vec<&'static str> {
    THU_HOSTS
        .iter()
        .chain(LIZEN_HOSTS.iter())
        .chain(HIT_HOSTS.iter())
        .copied()
        .collect()
}

/// The workload a cell replays, derived from the cell's own seed fork so
/// cells stay independent.
fn cell_seed(seed: u64, clients: usize, mode: SelectionMode) -> u64 {
    let mode_salt = match mode {
        SelectionMode::Static => 0x5747,
        SelectionMode::ContentionAware => 0xC047,
    };
    seed ^ (clients as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ mode_salt
}

/// Builds a cell's grid and installed workload without replaying it
/// (shared by [`run_grid_scale_cell`] and the property tests).
pub fn build_cell(seed: u64, clients: usize, cfg: &GridScaleConfig) -> (DataGrid, GridWorkload) {
    let cseed = cell_seed(seed, clients, cfg.mode);
    let mut builder = paper_testbed(cseed);
    builder.selection_mode(cfg.mode);
    let mut grid = builder.build();
    if cfg.verify {
        grid.set_network_validation(true);
    }
    grid.set_event_batching(cfg.batching);
    let hosts = all_paper_hosts();
    let spec = GridWorkloadSpec {
        clients,
        files: cfg.files,
        replicas_per_file: cfg.replicas_per_file,
        median_bytes: cfg.median_bytes,
        requests_per_client: cfg.requests_per_client,
        mean_inter_arrival: cfg.mean_inter_arrival,
    };
    let workload = grid_workload(&spec, &hosts, cseed);
    workload
        .install(&mut grid)
        .expect("generated workload installs cleanly");
    grid.warm_up(cfg.warm);
    // After warm-up, so the timeline (and its solver-work attribution)
    // covers only the replay itself.
    grid.enable_timeline(TIMELINE_WINDOW);
    (grid, workload)
}

/// Runs one sweep cell to completion: build, warm up, replay, measure,
/// read back the profiler and timeline, compact scratch, export
/// observability.
pub fn run_grid_scale_cell(seed: u64, clients: usize, cfg: &GridScaleConfig) -> GridScaleRun {
    let (mut grid, workload) = build_cell(seed, clients, cfg);
    let jobs = workload.jobs(&grid);
    let options = FetchOptions::default().with_parallelism(cfg.parallelism);
    let recovery = RecoveryOptions::default();
    // Engine counters are lifetime totals; diff across the replay so
    // `replay_solves` counts replay work only, not warm-up churn.
    let pre = grid.network().stats();
    let report = grid
        .replay_concurrent(&jobs, options, &recovery)
        .expect("generated workloads only fail per-job");
    if cfg.verify {
        grid.network()
            .verify_allocation()
            .expect("post-replay allocation carries the max-min certificate");
    }
    let latencies: Vec<f64> = report
        .outcomes
        .iter()
        .map(|o| o.latency().as_secs_f64())
        .collect();
    let stats = grid.network().stats();
    let replay_solves =
        stats.incremental_solves + stats.full_solves - (pre.incremental_solves + pre.full_solves);
    let decisions = grid.metrics_snapshot().counter("selection.decisions");
    let (scratch_hits, scratch_misses) = grid.score_scratch_stats();
    let snapshot = grid.profiler().snapshot();
    let settles = snapshot
        .phases
        .iter()
        .find(|p| p.path == "settle")
        .map_or(0, |p| p.calls);
    let timeline = grid.timeline().expect("build_cell attached the timeline");
    let windows = timeline.window_count();
    let timeline_json = timeline.render_json();
    let health_report = timeline.render_health_report();
    let prof_text = snapshot.render_text();
    // Compact the engine scratch between sweeps and report how much the
    // burst had pinned.
    let scratch_high_water = grid.network().scratch_footprint();
    grid.shrink_network_scratch();
    let scratch_after_shrink = grid.network().scratch_footprint();
    let completed = report.completed();
    let makespan_s = report.makespan().as_secs_f64();
    let per_sec = |n: u64| {
        if makespan_s > 0.0 {
            n as f64 / makespan_s
        } else {
            0.0
        }
    };
    let cell = GridScaleCell {
        clients,
        mode: cfg.mode.label(),
        fetches: report.outcomes.len(),
        completed,
        failed: report.failed(),
        failovers: report.outcomes.iter().map(|o| u64::from(o.failovers)).sum(),
        makespan_s,
        fetches_per_sec: per_sec(completed as u64),
        p50_s: percentile(&latencies, 0.50),
        p95_s: percentile(&latencies, 0.95),
        p99_s: percentile(&latencies, 0.99),
        incremental_solves: stats.incremental_solves,
        full_solves: stats.full_solves,
        solver_flows_touched: stats.solver_flows_touched,
        event_cohorts: stats.event_cohorts,
        batched_solves: stats.batched_solves,
        solves_avoided: stats.solves_avoided,
        scratch_high_water,
        scratch_after_shrink,
        decisions,
        decisions_per_sec: per_sec(decisions),
        settles,
        settles_per_sec: per_sec(settles),
        replay_solves,
        solves_per_decision: if decisions > 0 {
            replay_solves as f64 / decisions as f64
        } else {
            0.0
        },
        scratch_hits,
        scratch_misses,
        windows,
        phases: snapshot.phases,
    };
    GridScaleRun {
        cell,
        timeline_json,
        health_report,
        prof_text,
        obs: obs_dump(&grid),
    }
}

/// Runs the whole sweep — one cell per client count — on worker threads
/// ([`par_map`]; order-preserving, `DATAGRID_JOBS` pins the worker
/// count). Cells are seeded independently, so the result is
/// byte-identical to a serial sweep.
pub fn run_grid_scale(
    seed: u64,
    client_counts: &[usize],
    cfg: &GridScaleConfig,
) -> Vec<GridScaleRun> {
    par_map(client_counts.to_vec(), |clients| {
        run_grid_scale_cell(seed, clients, cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> GridScaleConfig {
        GridScaleConfig {
            files: 8,
            warm: SimDuration::from_secs(30),
            ..GridScaleConfig::default()
        }
    }

    /// The cell minus its phase wall-clock times, the only fields that
    /// vary run to run (and only in `prof-timing` builds).
    fn counts_only(mut cell: GridScaleCell) -> GridScaleCell {
        for p in &mut cell.phases {
            (p.total_ns, p.self_ns) = (0, 0);
        }
        cell
    }

    #[test]
    fn small_sweep_completes_and_renders() {
        let cfg = small_cfg();
        let runs = run_grid_scale(7, &[2, 5], &cfg);
        assert_eq!(runs.len(), 2);
        for run in &runs {
            assert_eq!(run.cell.fetches, run.cell.clients);
            assert_eq!(run.cell.completed + run.cell.failed, run.cell.fetches);
            assert!(run.cell.completed > 0, "no fetch completed");
            assert!(run.cell.p50_s > 0.0);
            assert!(run.cell.p99_s >= run.cell.p50_s);
            assert!(run.cell.scratch_after_shrink <= run.cell.scratch_high_water);
            assert!(run.cell.settles > 0, "replay settled no events");
            assert!(
                run.cell.decisions >= run.cell.clients as u64,
                "every job decides at least once"
            );
            assert!(run.cell.windows > 0, "timeline recorded no windows");
            let paths: Vec<&str> = run.cell.phases.iter().map(|p| p.path.as_str()).collect();
            for phase in ["settle", "settle/solve", "decide", "dispatch"] {
                assert!(paths.contains(&phase), "missing phase {phase} in {paths:?}");
            }
            assert!(run.timeline_json.contains("\"windows\""));
            assert!(run.health_report.contains("hottest link"));
            assert!(run.prof_text.contains("decide"));
            assert!(run.obs.events_jsonl.contains("replay.end"));
        }
        let report = GridScaleReport::from_runs(7, &runs);
        let json = report.render_json();
        assert!(json.contains("\"clients\": 5"));
        assert!(json.contains("\"decisions_per_sec\""));
        assert!(json.contains("\"settles_per_sec\""));
        assert!(json.contains("\"path\": \"settle/solve\""));
        let flag = format!("\"timing\": {TIMING_ENABLED}");
        assert!(json.contains(&flag), "{json}");
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn sweep_is_seed_deterministic() {
        let cfg = small_cfg();
        let (a, b) = (
            run_grid_scale(11, &[3], &cfg),
            run_grid_scale(11, &[3], &cfg),
        );
        let c = run_grid_scale(12, &[3], &cfg);
        let json =
            |seed, runs: &[GridScaleRun]| GridScaleReport::from_runs(seed, runs).render_json();
        if !TIMING_ENABLED {
            assert_eq!(json(11, &a), json(11, &b));
            assert_eq!(a[0].timeline_json, b[0].timeline_json);
            assert_eq!(a[0].health_report, b[0].health_report);
        }
        // Counts are deterministic even with timing enabled.
        assert_eq!(a[0].cell.decisions, b[0].cell.decisions);
        assert_eq!(a[0].cell.settles, b[0].cell.settles);
        assert_ne!(json(11, &a), json(12, &c));
        assert_ne!(a[0].timeline_json, c[0].timeline_json);
    }

    #[test]
    fn verified_cell_matches_unverified_numbers() {
        let plain = run_grid_scale_cell(7, 3, &small_cfg());
        let verified = run_grid_scale_cell(
            7,
            3,
            &GridScaleConfig {
                verify: true,
                ..small_cfg()
            },
        );
        // Certificate enforcement observes; it must never steer.
        assert_eq!(counts_only(plain.cell), counts_only(verified.cell));
    }

    #[test]
    fn static_mode_cell_runs() {
        let cfg = GridScaleConfig {
            mode: SelectionMode::Static,
            ..small_cfg()
        };
        let run = run_grid_scale_cell(3, 4, &cfg);
        assert_eq!(run.cell.mode, "static");
        assert_eq!(run.cell.completed + run.cell.failed, 4);
    }
}
