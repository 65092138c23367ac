//! `grid_scale` — **grid-level scale benchmark**.
//!
//! Replays deterministic multi-client workloads (seeded arrivals, Zipf
//! file popularity — [`datagrid_testbed::workload::grid_workload`])
//! against one shared paper testbed per cell, sweeping the client count.
//! Every selection decision is made while other clients' transfers are
//! consuming the links being scored; by default the sweep also runs both
//! [`SelectionMode`]s side by side, so the report shows what
//! contention-aware `BW_P` buys over the paper's static sensor reading.
//!
//! Every cell also runs with the grid's continuous telemetry on: a
//! 60 s health timeline attached after warm-up, and the replay driver's
//! phase profiler. The phase table of each cell (settle with nested
//! solver attribution, decide, dispatch, retry, failover) and the health
//! report of the largest cell are printed after the summary table.
//!
//! Writes `BENCH_grid.json` (override with `--out <path>` or
//! `$DATAGRID_BENCH_OUT`): fetches/sec, p50/p95/p99 fetch latency,
//! solver settle counters, failover counts, scratch compaction,
//! decisions/sec, settles/sec, solver passes per decision and the phase
//! counts per cell. In default builds every byte of the file is a pure
//! function of the seed; build with `--features prof-timing` to add
//! per-phase wall-clock milliseconds (those fields, and only those, vary
//! run to run). `grid_scale --check [path]` re-reads the file and
//! validates the key fields parse — a schema check, not a perf gate.
//! `grid_scale --check-budget <budget.json> [path]` gates the report's
//! deterministic work counters against a budget (`ci/grid_budget.json`;
//! see [`datagrid_bench::budget`]).
//!
//! Knobs: `DATAGRID_GRID_CLIENTS` (comma list, default
//! `16,64,256,1024,4096,16384`), `DATAGRID_GRID_FILES`, `DATAGRID_GRID_MODES`
//! (`static`, `contention`, or `both`), `DATAGRID_JOBS` (sweep worker
//! count; output is byte-identical for any value), `DATAGRID_OBS_DIR`
//! (dump each cell's event log / audit / metrics / timeline / health
//! report / phase table).
//!
//! `--verify` checks the max-min certificate on every cell: each solve
//! is enforced as it happens and the settled post-replay allocation is
//! re-verified. Slower, never changes the emitted numbers.

use datagrid_bench::{banner, env_list, env_usize, extract_number, seed_from_args, OBS_DIR_ENV};
use datagrid_core::prelude::SelectionMode;
use datagrid_obs::prof::TIMING_ENABLED;
use datagrid_testbed::experiment::TextTable;
use datagrid_testbed::gridscale::{run_grid_scale, GridScaleConfig, GridScaleReport, GridScaleRun};

fn modes() -> Vec<SelectionMode> {
    match std::env::var("DATAGRID_GRID_MODES").as_deref() {
        Ok("static") => vec![SelectionMode::Static],
        Ok("contention") => vec![SelectionMode::ContentionAware],
        _ => vec![SelectionMode::Static, SelectionMode::ContentionAware],
    }
}

/// CI smoke: re-read the emitted file and validate the key fields parse.
fn check(path: &str) -> Result<(), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if !json.contains("\"grid-scale\"") {
        return Err(format!("{path} is not a grid-scale report"));
    }
    if !json.contains("\"timing\": true") && !json.contains("\"timing\": false") {
        return Err(format!("{path}: missing \"timing\" flag"));
    }
    for key in [
        "clients",
        "fetches",
        "completed",
        "makespan_s",
        "fetches_per_sec",
        "latency_p50_s",
        "latency_p99_s",
        "incremental_solves",
        "decisions",
        "decisions_per_sec",
        "settles",
        "settles_per_sec",
        "replay_solves",
        "solves_per_decision",
        "windows",
    ] {
        let v = extract_number(&json, key)
            .ok_or_else(|| format!("{path}: missing numeric field \"{key}\""))?;
        if v.is_nan() || v <= 0.0 {
            return Err(format!("{path}: field \"{key}\" = {v}, expected > 0"));
        }
    }
    // Hot-path counters that may legitimately be zero (a tiny cell can
    // batch nothing); present and non-negative is the shape contract.
    for key in [
        "event_cohorts",
        "batched_solves",
        "solves_avoided",
        "scratch_hits",
        "scratch_misses",
    ] {
        let v = extract_number(&json, key)
            .ok_or_else(|| format!("{path}: missing numeric field \"{key}\""))?;
        if v < 0.0 {
            return Err(format!("{path}: field \"{key}\" = {v}, expected >= 0"));
        }
    }
    for phase in ["settle", "settle/solve", "decide", "dispatch"] {
        if !json.contains(&format!("\"path\": \"{phase}\"")) {
            return Err(format!("{path}: missing phase entry \"{phase}\""));
        }
    }
    let fetches = extract_number(&json, "fetches").unwrap_or(0.0);
    let completed = extract_number(&json, "completed").unwrap_or(0.0);
    if completed > fetches {
        return Err(format!(
            "{path}: completed {completed} exceeds fetches {fetches}"
        ));
    }
    println!(
        "{path}: ok ({:.0} clients, {:.0} fetches, {:.2} fetches/s, p50 {:.1}s, \
         {:.2} solves/decision)",
        extract_number(&json, "clients").unwrap_or(0.0),
        fetches,
        extract_number(&json, "fetches_per_sec").unwrap_or(0.0),
        extract_number(&json, "latency_p50_s").unwrap_or(0.0),
        extract_number(&json, "solves_per_decision").unwrap_or(0.0),
    );
    Ok(())
}

/// The perf gate: the report's deterministic work counters against the
/// ceilings and floors of a budget file.
fn check_budget(budget_path: &str, report_path: &str) -> Result<String, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    datagrid_bench::budget::check_budget(&read(report_path)?, &read(budget_path)?)
}

fn dump_cell_obs(run: &GridScaleRun) {
    let Ok(dir) = std::env::var(OBS_DIR_ENV) else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let label = format!("grid_scale_{}_c{}", run.cell.mode, run.cell.clients);
    let dir = std::path::Path::new(&dir);
    let files = [
        ("events.jsonl", run.obs.events_jsonl.as_str()),
        ("audit.jsonl", run.obs.audit_jsonl.as_str()),
        ("metrics.json", run.obs.metrics_json.as_str()),
        ("timeline.json", run.timeline_json.as_str()),
        ("health.txt", run.health_report.as_str()),
        ("profile.txt", run.prof_text.as_str()),
    ];
    let write_all = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (suffix, body) in files {
            std::fs::write(dir.join(format!("{label}.{suffix}")), body)?;
        }
        Ok(())
    };
    if let Err(err) = write_all() {
        eprintln!("observability: dump to {} failed: {err}", dir.display());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let path = args.get(1).map(String::as_str).unwrap_or("BENCH_grid.json");
        if let Err(err) = check(path) {
            eprintln!("grid_scale --check failed: {err}");
            std::process::exit(1);
        }
        return;
    }
    if args.first().map(String::as_str) == Some("--check-budget") {
        let Some(budget_path) = args.get(1) else {
            eprintln!("usage: grid_scale --check-budget <budget.json> [report.json]");
            std::process::exit(2);
        };
        let report_path = args.get(2).map(String::as_str).unwrap_or("BENCH_grid.json");
        match check_budget(budget_path, report_path) {
            Ok(summary) => {
                println!("{report_path}: within budget {budget_path}");
                print!("{summary}");
            }
            Err(err) => {
                eprintln!("grid_scale --check-budget failed against {budget_path}:\n{err}");
                std::process::exit(1);
            }
        }
        return;
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var("DATAGRID_BENCH_OUT").ok())
        .unwrap_or_else(|| "BENCH_grid.json".to_string());

    let seed = seed_from_args();
    banner("Grid scale: deterministic multi-client fetch replay", seed);
    println!(
        "wall-clock phase timings: {}\n",
        if TIMING_ENABLED {
            "on (prof-timing build; ms fields are non-deterministic)"
        } else {
            "off (counts only; output is a pure function of the seed)"
        }
    );

    let client_counts = env_list("DATAGRID_GRID_CLIENTS", &[16, 64, 256, 1024, 4096, 16384]);
    let files = env_usize("DATAGRID_GRID_FILES", 48);
    let verify = args.iter().any(|a| a == "--verify");
    if verify {
        println!("verification on: enforcing the max-min certificate on every solve\n");
    }

    let mut runs: Vec<GridScaleRun> = Vec::new();
    for mode in modes() {
        let cfg = GridScaleConfig {
            files,
            mode,
            verify,
            ..GridScaleConfig::default()
        };
        runs.extend(run_grid_scale(seed, &client_counts, &cfg));
    }
    let report = GridScaleReport::from_runs(seed, &runs);

    let mut table = TextTable::new([
        "clients",
        "mode",
        "done/fail",
        "failovers",
        "makespan (s)",
        "fetches/s",
        "p50 (s)",
        "p95 (s)",
        "p99 (s)",
        "solves",
        "solves/dec",
        "scratch h/m",
    ]);
    for c in &report.cells {
        table.row([
            format!("{}", c.clients),
            c.mode.to_string(),
            format!("{}/{}", c.completed, c.failed),
            format!("{}", c.failovers),
            format!("{:.1}", c.makespan_s),
            format!("{:.3}", c.fetches_per_sec),
            format!("{:.1}", c.p50_s),
            format!("{:.1}", c.p95_s),
            format!("{:.1}", c.p99_s),
            format!("{}", c.incremental_solves + c.full_solves),
            format!("{:.2}", c.solves_per_decision),
            format!("{}/{}", c.scratch_hits, c.scratch_misses),
        ]);
    }
    print!("{}", table.render());
    println!();
    for c in &report.cells {
        println!(
            "{} clients ({}): scratch {} -> {} elements after shrink",
            c.clients, c.mode, c.scratch_high_water, c.scratch_after_shrink
        );
    }
    for run in &runs {
        println!(
            "\nphase profile, {} clients ({}):",
            run.cell.clients, run.cell.mode
        );
        print!("{}", run.prof_text);
    }
    if let Some(largest) = runs.iter().max_by_key(|r| r.cell.clients) {
        println!(
            "\ngrid health report, {} clients ({}):",
            largest.cell.clients, largest.cell.mode
        );
        print!("{}", largest.health_report);
    }
    for run in &runs {
        dump_cell_obs(run);
    }
    if verify {
        println!(
            "\nmax-min certificate held on every solve across {} cell(s)",
            runs.len()
        );
    }

    let json = report.render_json();
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("\nwrote {out_path}");
}
