//! Monitoring tour: the information services under the cost model.
//!
//! Shows the three data sources of the paper's §3.2 — NWS bandwidth
//! forecasts, MDS CPU state and sysstat I/O state — evolving on the
//! simulated testbed, including the `sar`/`iostat`-style reports, the
//! NWS forecaster battery's dynamic predictor selection, and the
//! observability layer's event history / metrics exports.
//!
//! ```sh
//! cargo run --example monitoring
//! ```

use datagrid::prelude::*;
use datagrid::sysmon::sysstat;
use datagrid::testbed::calibration::Calibration;
use datagrid::testbed::sites::paper_testbed_with;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (builder, sites) = paper_testbed_with(11, &Calibration::default());
    let mut grid = builder.build();
    grid.warm_up(SimDuration::from_secs(600));

    let alpha1 = grid.host_id("alpha1").expect("testbed host");
    let lz02 = grid.host_id("lz02").expect("testbed host");
    let hit0 = grid.host_id("gridhit0").expect("testbed host");

    // --- NWS: bandwidth measurement + forecasting ---------------------
    println!("NWS bandwidth sensors toward alpha1 after 10 min of probing:");
    for (name, host) in [("lz02", lz02), ("gridhit0", hit0)] {
        let sensor = grid
            .nws()
            .sensor(grid.node_of(host), grid.node_of(alpha1))
            .expect("monitored path");
        println!(
            "  {name:<9} latest {:>8.2} Mbps   forecast {:>8.2} Mbps   BW_P {:.4}   forecaster: {}",
            sensor.latest().map_or(0.0, |b| b.as_mbps()),
            sensor.forecast().map_or(0.0, |b| b.as_mbps()),
            sensor.bandwidth_fraction().unwrap_or(0.0),
            sensor.battery().selected().unwrap_or("<warming up>"),
        );
    }

    // --- MDS: host information ----------------------------------------
    println!("\nMDS directory (CPU state, as the selection server reads it):");
    for rec in grid.mds().records().iter().take(6) {
        println!(
            "  {:<9} {} cores @ {:.1} GHz, {:>4} MiB   cpu idle {:>5.1}%   io idle {:>5.1}%",
            rec.name,
            rec.cores,
            rec.clock_ghz,
            rec.memory_mb,
            rec.cpu_idle * 100.0,
            rec.io_idle * 100.0,
        );
    }

    // --- sysstat: the raw reports the I/O factor comes from ------------
    let lz_host = grid.host(lz02);
    let sar = sysstat::sar_report(lz_host);
    println!("\nsar -u on lz02 (last 3 samples):");
    for line in sar.lines().take(2).chain(
        sar.lines()
            .rev()
            .take(4)
            .collect::<Vec<_>>()
            .into_iter()
            .rev(),
    ) {
        println!("  {line}");
    }
    let iostat = sysstat::iostat_report(lz_host);
    println!("\niostat on lz02 (last 3 samples):");
    for line in iostat.lines().take(2).chain(
        iostat
            .lines()
            .rev()
            .take(3)
            .collect::<Vec<_>>()
            .into_iter()
            .rev(),
    ) {
        println!("  {line}");
    }

    // --- sar -n DEV: WAN uplink utilisation from the link trace ---------
    let (to_lizen, _) = sites.lizen_uplink;
    if let Some(trace) = grid.network_trace().link(to_lizen) {
        let report = sysstat::ifstat_report("tanet->lizen", trace, Bandwidth::from_mbps(30.0));
        println!("\nsar -n DEV on the Li-Zen uplink (last 3 samples):");
        for line in report.lines().take(2).chain(
            report
                .lines()
                .rev()
                .take(3)
                .collect::<Vec<_>>()
                .into_iter()
                .rev(),
        ) {
            println!("  {line}");
        }
        println!(
            "  mean utilisation over the last 5 min: {:.1}%",
            trace
                .mean_over(grid.now(), SimDuration::from_secs(300))
                .unwrap_or(0.0)
                * 100.0
        );
    }

    // --- the factors flowing into the cost model -----------------------
    grid.catalog_mut()
        .register_logical("demo".parse()?, 64 << 20)?;
    grid.place_replica("demo", "lz02")?;
    grid.place_replica("demo", "gridhit0")?;
    let scored = grid.score_candidates(alpha1, "demo")?;
    println!("\ncost-model view (weights 0.8/0.1/0.1):");
    for c in &scored {
        println!(
            "  {:<9} BW_P {:.4}  CPU_P {:.3}  IO_P {:.3}  ->  score {:.3}",
            c.host_name,
            c.factors.bandwidth_fraction,
            c.factors.cpu_idle,
            c.factors.io_idle,
            c.score,
        );
    }

    // --- the observability layer: events, audit, metrics ----------------
    // Every monitoring action above also produced structured events; run
    // one real fetch, then walk the retained history oldest first.
    let report = grid.fetch(alpha1, "demo")?;
    println!(
        "\nfetch demo -> chose {} in {:.1} s; the decision was audited:",
        report.chosen_candidate().host_name,
        report.transfer.duration().as_secs_f64(),
    );
    if let Some(decision) = grid.audit().last() {
        print!("{}", decision.render_text());
    }

    for e in grid.recorder().events() {
        if e.kind == "span.close" || e.kind == "selection.decision" {
            println!("  bus <- {e}");
        }
    }
    println!(
        "replayed {} retained events ({} dropped from the ring) through the bus.",
        grid.recorder().events().len(),
        grid.recorder().dropped_events(),
    );

    println!("\nmetrics snapshot (selection + transfer section):");
    for line in grid
        .metrics_snapshot()
        .render_text()
        .lines()
        .filter(|l| l.starts_with("selection.") || l.starts_with("transfer.seconds"))
    {
        println!("  {line}");
    }
    println!("\nfull JSONL dumps: grid.recorder().events_jsonl(), grid.audit().render_jsonl(),");
    println!("or DATAGRID_OBS_DIR=/tmp/obs cargo run -p datagrid-bench --bin table1");
    Ok(())
}
