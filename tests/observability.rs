//! Integration coverage for the grid-wide observability layer: the
//! selection audit of the paper's Table 1 scenario, metric exports and the
//! transfer span events.

use datagrid::obs::Value;
use datagrid::prelude::*;

const MB: u64 = 1 << 20;

/// The Table 1 scenario: client `alpha1` fetches `file-a` (1024 MB in the
/// paper, smaller here for test speed) replicated on `alpha4`, `hit0` and
/// `lz02`, with the paper's weights 0.8/0.1/0.1.
fn table1_grid(seed: u64) -> DataGrid {
    let mut grid = paper_testbed(seed).build();
    grid.catalog_mut()
        .register_logical("file-a".parse().unwrap(), 64 * MB)
        .unwrap();
    for host in ["alpha4", "hit0", "lz02"] {
        grid.place_replica("file-a", canonical_host(host)).unwrap();
    }
    grid.warm_up(SimDuration::from_secs(300));
    grid
}

#[test]
fn table1_scenario_records_a_full_selection_audit() {
    let mut grid = table1_grid(905);
    let client = grid.host_id("alpha1").unwrap();
    let report = grid.fetch(client, "file-a").unwrap();

    let audit = grid.audit();
    assert_eq!(audit.len(), 1);
    let decision = audit.last().unwrap();
    assert_eq!(decision.lfn, "file-a");
    assert_eq!(decision.client, "alpha1");
    assert_eq!(decision.policy, "cost-model");
    assert_eq!(decision.weights, (0.8, 0.1, 0.1));

    // All three candidates with their full factor breakdown, ranked
    // best-first: alpha4 (same cluster) > gridhit0 (fast WAN) > lz02
    // (slow lossy WAN) — the paper's Table 1 ordering.
    assert_eq!(decision.candidates.len(), 3);
    assert_eq!(decision.hosts_by_rank(), vec!["alpha4", "gridhit0", "lz02"]);
    assert_eq!(decision.winner, "alpha4");
    assert_eq!(decision.winner, report.chosen_candidate().host_name);
    for candidate in &decision.candidates {
        assert!(
            candidate.bw_p > 0.0 && candidate.bw_p <= 1.0,
            "BW_P out of range for {}",
            candidate.host
        );
        assert!((0.0..=1.0).contains(&candidate.cpu_p));
        assert!((0.0..=1.0).contains(&candidate.io_p));
        let recomputed = candidate.weighted_bw + candidate.weighted_cpu + candidate.weighted_io;
        assert!(
            (recomputed - candidate.score).abs() < 1e-9,
            "weighted components must sum to the score for {}",
            candidate.host
        );
        assert!((candidate.weighted_bw - 0.8 * candidate.bw_p).abs() < 1e-12);
        assert!((candidate.weighted_cpu - 0.1 * candidate.cpu_p).abs() < 1e-12);
        assert!((candidate.weighted_io - 0.1 * candidate.io_p).abs() < 1e-12);
    }

    // The winner's measured transfer time is attached automatically.
    let winner = decision.winner_audit().unwrap();
    assert!(winner.measured_secs.unwrap() > 0.0);

    // Both renders carry the decision.
    assert!(audit.render_text().contains("alpha4"));
    let jsonl = audit.render_jsonl();
    assert!(jsonl.contains("\"winner\":\"alpha4\""));
    assert!(jsonl.contains("\"bw_p\""));
}

#[test]
fn counterfactual_times_complete_the_rank_agreement() {
    let mut grid = table1_grid(906);
    let client = grid.host_id("alpha1").unwrap();
    let candidates = grid.score_candidates(client, "file-a").unwrap();
    grid.fetch(client, "file-a").unwrap();

    // Measure the two losing candidates on clones, as table1 does.
    let mut measured = Vec::new();
    for c in &candidates {
        let mut probe = grid.clone();
        let report = probe
            .fetch_from(client, "file-a", &c.host_name, FetchOptions::default())
            .unwrap();
        measured.push((
            c.host_name.clone(),
            report.transfer.duration().as_secs_f64(),
        ));
    }
    let decision = grid.recorder_mut().audit_mut().last_mut().unwrap();
    for (host, secs) in &measured {
        decision.attach_measured(host, *secs);
    }
    assert_eq!(
        decision.rank_agreement(),
        Some(1.0),
        "score order must match measured-time order in the Table 1 scenario"
    );
}

#[test]
fn metrics_export_has_latency_histograms_in_text_and_json() {
    let mut grid = table1_grid(907);
    let client = grid.host_id("alpha1").unwrap();
    grid.fetch(client, "file-a").unwrap();

    let metrics = grid.metrics_snapshot();
    let text = metrics.render_text();
    let json = metrics.render_json();

    // Per-transfer latency histogram, in both renders.
    let hist = metrics.histogram("transfer.seconds").unwrap();
    assert_eq!(hist.count(), 1);
    assert!(text.contains("transfer.seconds count 1"));
    assert!(text.contains("transfer.seconds le +inf 1"));
    assert!(json.contains("\"transfer.seconds\":{\"bounds\":"));

    // Selection + monitoring + merged subsystem counters.
    assert!(text.contains("selection.decisions 1"));
    assert!(metrics.counter("monitor.ticks") >= 29);
    assert!(metrics.counter("nws.probes_completed") > 0);
    assert!(metrics.counter("catalog.lookups") >= 2);
    assert!(metrics.counter("simnet.flows_completed") > 0);
    assert!(metrics.histogram("selection.score").is_some());
    assert!(metrics.histogram("transfer.phase_seconds.data").is_some());
}

#[test]
fn events_jsonl_renders_one_line_per_retained_event() {
    let mut grid = table1_grid(908);
    let client = grid.host_id("alpha1").unwrap();
    grid.fetch(client, "file-a").unwrap();

    let direct = grid.recorder().events_jsonl();
    assert_eq!(direct.lines().count(), grid.recorder().events().len());
    assert!(
        direct.contains("\"component\":\"gridftp\"") || direct.contains("\"kind\":\"span.open\"")
    );
}

#[test]
fn remote_fetch_span_events_mirror_the_transfer_outcome() {
    let mut grid = table1_grid(909);
    let client = grid.host_id("alpha1").unwrap();
    let report = grid.fetch(client, "file-a").unwrap();
    assert!(!report.local_hit, "alpha1 holds no replica of file-a");
    let outcome = &report.transfer;

    // The fetch's span: one `span.open`, one `span.phase` per outcome
    // phase in order, one `span.close`, emitted back to back.
    let events: Vec<&Event> = grid.recorder().events().collect();
    let open_at = events
        .iter()
        .position(|e| e.kind == "span.open" && e.field("lfn") == Some(&Value::from("file-a")))
        .expect("the fetch opens a span");
    let span = &events[open_at..open_at + outcome.phases.len() + 2];
    let id = span[0].field("span").expect("span id").clone();
    assert!(span.iter().all(|e| e.component == "gridftp"));
    assert!(span.iter().all(|e| e.field("span") == Some(&id)));

    let open = span[0];
    assert_eq!(open.time, outcome.started);
    assert_eq!(
        open.field("payload_bytes"),
        Some(&Value::from(outcome.payload_bytes))
    );
    assert_eq!(open.field("streams"), Some(&Value::from(outcome.streams)));
    assert_eq!(open.field("stripes"), Some(&Value::from(outcome.stripes)));
    assert_eq!(open.field("protocol"), Some(&Value::from("gridftp")));
    assert_eq!(
        open.field("src"),
        Some(&Value::from(report.chosen_candidate().host_name.as_str()))
    );
    assert_eq!(
        open.field("dst"),
        Some(&Value::from(report.client.as_str()))
    );

    assert!(!outcome.phases.is_empty());
    for (event, phase) in span[1..=outcome.phases.len()].iter().zip(&outcome.phases) {
        assert_eq!(event.kind, "span.phase");
        assert_eq!(event.time, phase.end);
        assert_eq!(event.field("phase"), Some(&Value::from(phase.name)));
        assert_eq!(
            event.field("secs"),
            Some(&Value::from(phase.duration().as_secs_f64()))
        );
    }

    let close = span[span.len() - 1];
    assert_eq!(close.kind, "span.close");
    assert_eq!(close.time, outcome.finished);
    assert_eq!(
        close.field("secs"),
        Some(&Value::from(outcome.duration().as_secs_f64()))
    );
    assert_eq!(
        close.field("wire_bytes"),
        Some(&Value::from(outcome.wire_bytes))
    );
}
