//! `scale` — **simulation-core throughput benchmark**.
//!
//! Measures how fast the fluid-flow engine settles large flow populations
//! under the two solver modes:
//!
//! * [`SolverMode::Full`] — the from-scratch baseline: every arrival,
//!   completion or fault re-solves the whole network and reschedules every
//!   flow (the engine's original behaviour),
//! * [`SolverMode::Incremental`] — the per-link flow index + connected
//!   component solver that only touches the perturbed component.
//!
//! Two figures: `disjoint-pairs` (1k+ concurrent flows over independent
//! site pairs, the regime replica selection creates — most transfers do
//! not share links) and `coupled-hub` (every flow crosses one shared hub,
//! the honest worst case where the component is the whole network).
//!
//! Writes `BENCH_simnet.json` (override with `--out <path>` or
//! `$DATAGRID_BENCH_OUT`) with events/sec, settles/sec, flows sustained
//! and wall time per figure, baseline and incremental side by side.
//! `scale --check [path]` re-reads the file and validates the key
//! throughput fields of the headline and of every figure parse — the CI
//! smoke test, not a perf gate.
//! `--verify` turns on per-solve max-min certificate enforcement plus a
//! peak-population [`NetSim::verify_allocation`] check per figure (wall
//! times are then not comparable to unverified runs).

#![expect(
    clippy::disallowed_methods,
    reason = "the scale benchmark measures wall-clock throughput: that is its output"
)]

use std::fmt::Write as _;
use std::time::Instant;

use datagrid_bench::{banner, emit_engine_observability, env_usize, MB};
use datagrid_simnet::engine::{EventKind, FlowSpec, NetSim, SolverMode};
use datagrid_simnet::time::SimDuration;
use datagrid_simnet::topology::{Bandwidth, LinkSpec, NodeId, Topology};
use datagrid_testbed::experiment::TextTable;

/// The seed is cosmetic here (no randomness in the workload), but keeps
/// the banner format consistent with the other reproducers.
const SEED: u64 = 20050905;

fn mode_label(mode: SolverMode) -> &'static str {
    match mode {
        SolverMode::Full => "full",
        SolverMode::Incremental => "incremental",
    }
}

/// One solver-mode run of one figure.
struct ModeResult {
    wall_s: f64,
    events_processed: u64,
    settles: u64,
    flows_touched: u64,
}

impl ModeResult {
    fn events_per_sec(&self) -> f64 {
        self.events_processed as f64 / self.wall_s
    }

    fn settles_per_sec(&self) -> f64 {
        self.settles as f64 / self.wall_s
    }

    fn json(&self) -> String {
        format!(
            "{{\"wall_s\": {:.6}, \"events_processed\": {}, \"settles\": {}, \
             \"flows_touched\": {}, \"events_per_sec\": {:.1}, \"settles_per_sec\": {:.1}}}",
            self.wall_s,
            self.events_processed,
            self.settles,
            self.flows_touched,
            self.events_per_sec(),
            self.settles_per_sec(),
        )
    }
}

struct Figure {
    name: &'static str,
    flows: usize,
    full: ModeResult,
    incremental: ModeResult,
}

impl Figure {
    /// Settle throughput improvement: both modes process the same workload
    /// (same arrivals and completions), so the ratio of settles/sec is the
    /// per-event reallocation speedup.
    fn settle_speedup(&self) -> f64 {
        self.incremental.settles_per_sec() / self.full.settles_per_sec()
    }

    fn wall_speedup(&self) -> f64 {
        self.full.wall_s / self.incremental.wall_s
    }
}

/// `pairs` independent site pairs, each with a dedicated duplex link and
/// `flows_per_pair` concurrent flows of staggered sizes (distinct
/// completion times, so every completion perturbs its component).
fn disjoint_pairs_run(
    pairs: usize,
    flows_per_pair: usize,
    mode: SolverMode,
    verify: bool,
) -> ModeResult {
    let mut topo = Topology::new();
    let endpoints: Vec<(NodeId, NodeId)> = (0..pairs)
        .map(|i| {
            let a = topo.add_node(format!("src{i}"));
            let b = topo.add_node(format!("dst{i}"));
            topo.add_duplex_link(
                a,
                b,
                LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_millis(1)),
            );
            (a, b)
        })
        .collect();
    let mut sim = NetSim::new(topo, SEED);
    sim.set_solver_mode(mode);
    sim.set_validation(verify);

    let start = Instant::now();
    for (i, &(a, b)) in endpoints.iter().enumerate() {
        for k in 0..flows_per_pair {
            // 4..20 MB, varied per pair and per flow.
            let bytes = (4 + (i + 3 * k) % 16) as u64 * MB;
            sim.start_flow(FlowSpec::new(a, b, bytes));
        }
    }
    if verify {
        sim.verify_allocation()
            .expect("peak-population allocation carries the max-min certificate");
    }
    let result = drain(&mut sim, start);
    emit_engine_observability(&sim, &format!("scale_disjoint_pairs_{}", mode_label(mode)));
    result
}

/// `hosts` spokes around one hub; every flow crosses the shared hub, so
/// all flows form a single connected component and the incremental solver
/// degenerates to (almost) the full solve.
fn coupled_hub_run(
    hosts: usize,
    flows_per_host: usize,
    mode: SolverMode,
    verify: bool,
) -> ModeResult {
    let mut topo = Topology::new();
    let hub = topo.add_node("hub");
    let spokes: Vec<NodeId> = (0..hosts)
        .map(|i| {
            let n = topo.add_node(format!("host{i}"));
            topo.add_duplex_link(
                n,
                hub,
                LinkSpec::new(Bandwidth::from_mbps(200.0), SimDuration::from_millis(1)),
            );
            n
        })
        .collect();
    let mut sim = NetSim::new(topo, SEED);
    sim.set_solver_mode(mode);
    sim.set_validation(verify);

    let start = Instant::now();
    for (i, &src) in spokes.iter().enumerate() {
        for k in 0..flows_per_host {
            let dst = spokes[(i + 1 + k) % spokes.len()];
            let bytes = (4 + (i + 5 * k) % 12) as u64 * MB;
            sim.start_flow(FlowSpec::new(src, dst, bytes));
        }
    }
    if verify {
        sim.verify_allocation()
            .expect("peak-population allocation carries the max-min certificate");
    }
    let result = drain(&mut sim, start);
    emit_engine_observability(&sim, &format!("scale_coupled_hub_{}", mode_label(mode)));
    result
}

/// Runs the event loop until every flow has completed, then snapshots the
/// engine counters for whichever solver mode was active.
fn drain(sim: &mut NetSim, start: Instant) -> ModeResult {
    while let Some(ev) = sim.next_event() {
        debug_assert!(matches!(ev.kind, EventKind::FlowCompleted(_)));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let stats = sim.stats();
    assert_eq!(stats.flows_started, stats.flows_completed, "drained");
    ModeResult {
        wall_s,
        events_processed: stats.events_processed,
        settles: stats.incremental_solves + stats.full_solves,
        flows_touched: stats.solver_flows_touched,
    }
}

fn render_json(figures: &[Figure]) -> String {
    let headline = &figures[0];
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"simnet-scale\",");
    let _ = writeln!(out, "  \"seed\": {SEED},");
    let _ = writeln!(out, "  \"flows_sustained\": {},", headline.flows);
    let _ = writeln!(
        out,
        "  \"events_per_sec\": {:.1},",
        headline.incremental.events_per_sec()
    );
    let _ = writeln!(
        out,
        "  \"settles_per_sec\": {:.1},",
        headline.incremental.settles_per_sec()
    );
    let _ = writeln!(
        out,
        "  \"settle_throughput_speedup\": {:.2},",
        headline.settle_speedup()
    );
    out.push_str("  \"figures\": [\n");
    for (i, fig) in figures.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", fig.name);
        let _ = writeln!(out, "      \"flows_sustained\": {},", fig.flows);
        let _ = writeln!(out, "      \"baseline_full\": {},", fig.full.json());
        let _ = writeln!(out, "      \"incremental\": {},", fig.incremental.json());
        let _ = writeln!(
            out,
            "      \"settle_throughput_speedup\": {:.2},",
            fig.settle_speedup()
        );
        let _ = writeln!(out, "      \"wall_speedup\": {:.2}", fig.wall_speedup());
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 < figures.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// CI smoke: re-read the emitted file and validate that the headline and
/// every figure's throughput fields parse as positive numbers.
/// Deliberately *not* a perf gate — CI machines are too noisy to assert
/// the speedup itself.
fn check(path: &str) -> Result<(), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let summary =
        datagrid_bench::schema::check_scale_report(&json).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: {summary}");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let path = args
            .get(1)
            .map(String::as_str)
            .unwrap_or("BENCH_simnet.json");
        if let Err(err) = check(path) {
            eprintln!("scale --check failed: {err}");
            std::process::exit(1);
        }
        return;
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var("DATAGRID_BENCH_OUT").ok())
        .unwrap_or_else(|| "BENCH_simnet.json".to_string());

    banner(
        "Scale: simulation-core settle throughput (incremental vs full solver)",
        SEED,
    );

    let pairs = env_usize("DATAGRID_SCALE_PAIRS", 256);
    let per_pair = env_usize("DATAGRID_SCALE_FLOWS_PER_PAIR", 8);
    let hosts = env_usize("DATAGRID_SCALE_HOSTS", 64);
    let per_host = env_usize("DATAGRID_SCALE_FLOWS_PER_HOST", 4);
    let verify = args.iter().any(|a| a == "--verify");
    if verify {
        println!(
            "verification on: every solve is certificate-checked \
             (wall times are not comparable to unverified runs)\n"
        );
    }

    let figures = [
        Figure {
            name: "disjoint-pairs",
            flows: pairs * per_pair,
            full: disjoint_pairs_run(pairs, per_pair, SolverMode::Full, verify),
            incremental: disjoint_pairs_run(pairs, per_pair, SolverMode::Incremental, verify),
        },
        Figure {
            name: "coupled-hub",
            flows: hosts * per_host,
            full: coupled_hub_run(hosts, per_host, SolverMode::Full, verify),
            incremental: coupled_hub_run(hosts, per_host, SolverMode::Incremental, verify),
        },
    ];

    let mut table = TextTable::new([
        "figure",
        "flows",
        "mode",
        "wall (ms)",
        "events/s",
        "settles/s",
        "flows touched",
    ]);
    for fig in &figures {
        for (mode, r) in [("full", &fig.full), ("incremental", &fig.incremental)] {
            table.row([
                fig.name.to_string(),
                format!("{}", fig.flows),
                mode.to_string(),
                format!("{:.2}", r.wall_s * 1e3),
                format!("{:.0}", r.events_per_sec()),
                format!("{:.0}", r.settles_per_sec()),
                format!("{}", r.flows_touched),
            ]);
        }
    }
    print!("{}", table.render());
    println!();
    for fig in &figures {
        println!(
            "{}: settle throughput {:.1}x the from-scratch baseline (wall {:.1}x) at {} \
             concurrent flows",
            fig.name,
            fig.settle_speedup(),
            fig.wall_speedup(),
            fig.flows,
        );
    }

    let json = render_json(&figures);
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("\nwrote {out_path}");
}
