//! Fault injection and recovery, end to end: injected link/host faults
//! interrupt real transfers, and the client survives them through the
//! recovery ladder — stall watchdog, backoff retries with MODE E restart
//! markers, suspect marking and next-best-replica failover.

use datagrid::obs::Value;
use datagrid::prelude::*;

const MB: u64 = 1 << 20;

/// The Table 1 replica sites.
const TABLE1_SITES: [&str; 3] = ["alpha4", "hit0", "lz02"];

/// The paper testbed with `file-a` replicated at `sites` and monitoring
/// warmed long enough for the canonical ranking to settle.
fn fault_grid(seed: u64, file_mb: u64, sites: &[&str]) -> DataGrid {
    let mut grid = paper_testbed(seed).build();
    grid.catalog_mut()
        .register_logical("file-a".parse().unwrap(), file_mb * MB)
        .unwrap();
    for &host in sites {
        grid.place_replica("file-a", canonical_host(host)).unwrap();
    }
    grid.warm_up(SimDuration::from_secs(300));
    grid
}

/// A tight recovery ladder so tests abandon dead replicas quickly.
fn quick_recovery() -> RecoveryOptions {
    RecoveryOptions::default()
        .with_retry(
            RetryPolicy::default()
                .with_max_attempts(2)
                .with_base_backoff(SimDuration::from_secs(2)),
        )
        .with_stall_timeout(SimDuration::from_secs(2))
}

/// The ISSUE acceptance scenario: the top-ranked replica blacks out
/// mid-transfer and the fetch still completes via the next-ranked
/// candidate, with the whole episode visible in the observability layer.
#[test]
fn blackout_of_top_replica_fails_over_mid_transfer() {
    let mut grid = fault_grid(20050905, 1024, &TABLE1_SITES);
    let client = grid.host_id("alpha1").unwrap();
    let top = grid.score_candidates(client, "file-a").unwrap()[0].clone();
    assert_eq!(top.host_name, "alpha4", "canonical Table 1 winner");

    grid.install_fault_plan(FaultPlan::new().host_blackout(
        grid.now() + SimDuration::from_secs(4),
        SimDuration::from_secs(3600),
        grid.node_of(top.host),
    ));
    let rec = grid
        .fetch_with_recovery(
            client,
            "file-a",
            FetchOptions::default().with_parallelism(4),
            &quick_recovery(),
        )
        .expect("the fetch survives the blackout via failover");

    // The failover path: alpha4 abandoned, gridhit0 delivers the file.
    assert_eq!(rec.failed_over, vec!["alpha4".to_string()]);
    assert_eq!(rec.report.chosen_candidate().host_name, "gridhit0");
    assert_eq!(rec.report.transfer.payload_bytes, 1024 * MB);
    assert!(rec.attempts >= 3, "2 on alpha4 + 1 on gridhit0");
    assert!(
        rec.payload_moved > 1024 * MB,
        "bytes delivered before the blackout were lost: moved {}",
        rec.payload_moved
    );
    assert!(!rec.backoff_total.is_zero(), "a retry implies backoff");
    assert!(grid.catalog().is_suspect(&top.location));

    // The episode is fully reconstructable from the observability layer.
    let m = grid.metrics_snapshot();
    assert!(m.counter("transfer.stalls") >= 1);
    assert!(m.counter("transfer.retries") >= 1);
    assert_eq!(m.counter("transfer.abandoned"), 1);
    assert_eq!(m.counter("selection.failovers"), 1);
    assert_eq!(m.counter("fault.host_blackout"), 1);
    let kinds: Vec<&str> = grid.recorder().events().map(|e| e.kind).collect();
    for kind in [
        "fault.start",
        "transfer.stall",
        "transfer.retry",
        "transfer.abandoned",
        "selection.failover",
    ] {
        assert!(kinds.contains(&kind), "missing event {kind}: {kinds:?}");
    }
    let decision = grid.audit().last().expect("failover was audited");
    assert_eq!(decision.policy, "failover");
    assert_eq!(decision.winner, "gridhit0");
}

/// The `u64` field `key` of every recorded event of `kind`, in order.
fn event_field(grid: &DataGrid, kind: &str, key: &str) -> Vec<u64> {
    grid.recorder()
        .events()
        .filter(|e| e.kind == kind)
        .map(|e| match e.field(key) {
            Some(Value::U64(v)) => *v,
            other => panic!("{kind}.{key} is {other:?}"),
        })
        .collect()
}

/// The restart-marker acceptance property at grid level: a transient
/// outage of a file's only replica costs a MODE E fetch nothing but time,
/// while a stream-mode fetch re-sends everything it had already
/// delivered.
#[test]
fn resumed_transfers_move_fewer_bytes_than_restart_from_zero() {
    let outage = |parallelism: u32| {
        let mut grid = fault_grid(777, 256, &["alpha4"]);
        let src = grid.host_id("alpha4").unwrap();
        let client = grid.host_id("alpha1").unwrap();
        grid.install_fault_plan(FaultPlan::new().host_blackout(
            grid.now() + SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            grid.node_of(src),
        ));
        let recovery = RecoveryOptions::default()
            .with_retry(RetryPolicy::default().with_base_backoff(SimDuration::from_secs(1)))
            .with_stall_timeout(SimDuration::from_secs(1));
        let rec = grid
            .fetch_with_recovery(
                client,
                "file-a",
                FetchOptions::default().with_parallelism(parallelism),
                &recovery,
            )
            .expect("the outage is transient");
        let resumed_from = event_field(&grid, "transfer.retry", "resume_offset");
        (rec, resumed_from)
    };

    let (mode_e, mode_e_resumed) = outage(4);
    let (stream, stream_resumed) = outage(0);

    for (rec, resumed) in [(&mode_e, &mode_e_resumed), (&stream, &stream_resumed)] {
        assert!(rec.attempts >= 2, "the fault interrupted the transfer");
        assert!(rec.failed_over.is_empty(), "the only replica recovers");
        assert_eq!(
            resumed.len() as u32,
            rec.attempts - 1,
            "one retry per resume"
        );
    }
    // The final MODE E session only carried the tail beyond the last
    // restart marker; the stream-mode restart re-sent the whole file.
    let resumed_at = *mode_e_resumed.last().unwrap();
    assert_eq!(resumed_at + mode_e.report.transfer.payload_bytes, 256 * MB);
    assert_eq!(stream.report.transfer.payload_bytes, 256 * MB);
    // MODE E resumed from the last committed byte, so the wire moved the
    // payload exactly once; stream mode re-sent the pre-fault bytes.
    assert_eq!(mode_e.payload_moved, 256 * MB);
    assert!(
        mode_e.payload_moved < stream.payload_moved,
        "resume {} vs restart {}",
        mode_e.payload_moved,
        stream.payload_moved
    );
    assert!(mode_e_resumed.iter().any(|&o| o > 0));
    assert!(stream_resumed.iter().all(|&o| o == 0));
}

/// A permanent outage of a file's only replica spends that replica's
/// retries, abandons it with the committed prefix on record, and leaves
/// no candidate to fail over to.
#[test]
fn permanent_outage_of_the_only_replica_exhausts_its_retries() {
    let mut grid = fault_grid(20050905, 256, &["alpha4"]);
    let src = grid.host_id("alpha4").unwrap();
    let client = grid.host_id("alpha1").unwrap();
    grid.install_fault_plan(FaultPlan::new().host_blackout(
        grid.now() + SimDuration::from_secs(1),
        SimDuration::from_secs(100_000),
        grid.node_of(src),
    ));
    let err = grid
        .fetch_with_recovery(
            client,
            "file-a",
            FetchOptions::default().with_parallelism(4),
            &quick_recovery(),
        )
        .expect_err("the only replica never comes back");
    match err {
        GridError::AllReplicasFailed { failed, .. } => assert_eq!(failed, vec!["alpha4"]),
        other => panic!("unexpected error {other:?}"),
    }
    assert_eq!(
        event_field(&grid, "transfer.abandoned", "attempts"),
        vec![2]
    );
    let delivered = event_field(&grid, "transfer.abandoned", "delivered")[0];
    assert!(delivered > 0, "the first attempt committed a prefix");
    assert!(delivered < 256 * MB);
}

/// A dropped connection is noticed by the stall watchdog and the fetch
/// retries the same replica.
#[test]
fn connection_drop_is_detected_and_retried() {
    let mut grid = fault_grid(3, 256, &["alpha4"]);
    let client = grid.host_id("alpha1").unwrap();
    // 256 MiB over the 1 Gbps LAN takes over 2 s, so a drop at +1 s lands
    // mid-data.
    grid.install_fault_plan(
        FaultPlan::new()
            .connection_drop(grid.now() + SimDuration::from_secs(1), grid.node_of(client)),
    );
    let rec = grid
        .fetch_with_recovery(
            client,
            "file-a",
            FetchOptions::default().with_parallelism(2),
            &quick_recovery(),
        )
        .expect("the replica is still up");
    assert!(rec.attempts >= 2, "the drop forces a retry");
    assert!(rec.failed_over.is_empty());
    assert!(rec.payload_moved >= 256 * MB);
}

/// When every replica is dark the fetch reports the full casualty list
/// instead of spinning forever.
#[test]
fn all_replicas_dark_is_reported_with_the_casualty_list() {
    let mut grid = fault_grid(20050905, 256, &TABLE1_SITES);
    let client = grid.host_id("alpha1").unwrap();
    let at = grid.now() + SimDuration::from_secs(1);
    let mut plan = FaultPlan::new();
    for host in ["alpha4", "gridhit0", "lz02"] {
        let id = grid.host_id(host).unwrap();
        plan = plan.host_blackout(at, SimDuration::from_secs(100_000), grid.node_of(id));
    }
    grid.install_fault_plan(plan);

    let err = grid
        .fetch_with_recovery(
            client,
            "file-a",
            FetchOptions::default().with_parallelism(4),
            &quick_recovery(),
        )
        .expect_err("no replica can deliver");
    match err {
        GridError::AllReplicasFailed { lfn, failed } => {
            assert_eq!(lfn, "file-a");
            assert_eq!(failed.len(), 3, "every site was tried: {failed:?}");
        }
        other => panic!("unexpected error {other:?}"),
    }
}

/// A plain `fetch` runs on the same recovering driver as
/// `fetch_with_recovery`: a connection drop on the chosen replica
/// mid-transfer is retried with the default recovery options, and the
/// whole file arrives.
#[test]
fn plain_fetch_survives_a_connection_drop_on_the_chosen_replica() {
    let mut grid = fault_grid(20050905, 1024, &TABLE1_SITES);
    let client = grid.host_id("alpha1").unwrap();
    let alpha4 = grid.host_id("alpha4").unwrap();
    grid.install_fault_plan(
        FaultPlan::new()
            .connection_drop(grid.now() + SimDuration::from_secs(4), grid.node_of(alpha4)),
    );
    let report = grid
        .fetch(client, "file-a")
        .expect("the replica is still up");
    assert_eq!(report.chosen_candidate().host_name, "alpha4");
    assert_eq!(report.transfer.payload_bytes, 1024 * MB);
    let m = grid.metrics_snapshot();
    assert_eq!(m.counter("simnet.flows_dropped"), 1);
    assert_eq!(m.counter("transfer.stalls"), 1);
    assert_eq!(m.counter("transfer.retries"), 1);
    assert_eq!(m.counter("selection.failovers"), 0);
}

/// `fetch_from` forces only its first decision: with the forced host
/// blacked out, its retries run out and the fetch fails over like any
/// other, and the audit shows both decisions in order.
#[test]
fn fetch_from_a_dark_host_fails_over_after_the_forced_decision() {
    let mut grid = fault_grid(20050905, 256, &TABLE1_SITES);
    let client = grid.host_id("alpha1").unwrap();
    let alpha4 = grid.host_id("alpha4").unwrap();
    grid.install_fault_plan(FaultPlan::new().host_blackout(
        grid.now() + SimDuration::from_secs(1),
        SimDuration::from_secs(100_000),
        grid.node_of(alpha4),
    ));
    let report = grid
        .fetch_from(client, "file-a", "alpha4", FetchOptions::default())
        .expect("another replica delivers");
    assert_ne!(report.chosen_candidate().host_name, "alpha4");
    assert_eq!(report.transfer.payload_bytes, 256 * MB);
    let policies: Vec<&str> = grid
        .audit()
        .decisions()
        .map(|d| d.policy.as_str())
        .collect();
    assert_eq!(policies, ["forced", "failover"]);
    let winners: Vec<&str> = grid
        .audit()
        .decisions()
        .map(|d| d.winner.as_str())
        .collect();
    assert_eq!(winners[0], "alpha4");
}

/// The raw transfer primitives run no stall watchdog; a connection drop
/// that resets their data flows ends them with a typed error carrying the
/// payload delivered so far instead of waiting forever.
#[test]
fn transfer_primitives_fail_fast_on_a_connection_drop() {
    let mut grid = fault_grid(20050905, 1024, &TABLE1_SITES);
    let client = grid.host_id("alpha1").unwrap();
    let alpha4 = grid.host_id("alpha4").unwrap();
    grid.install_fault_plan(
        FaultPlan::new()
            .connection_drop(grid.now() + SimDuration::from_secs(4), grid.node_of(alpha4)),
    );
    let err = grid
        .transfer_between(alpha4, client, TransferRequest::new(1024 * MB))
        .expect_err("the drop reset the only stream");
    match err {
        GridError::Transfer(TransferError::ConnectionDropped { delivered_payload }) => {
            assert!(delivered_payload < 1024 * MB)
        }
        other => panic!("unexpected error {other:?}"),
    }
    // The grid stays usable: the next transfer on the same pair completes.
    let outcome = grid
        .transfer_between(alpha4, client, TransferRequest::new(64 * MB))
        .unwrap();
    assert_eq!(outcome.payload_bytes, 64 * MB);
}

/// A connection drop that resets an in-flight NWS probe must not freeze
/// that path's sensor: the grid forgets the dropped probe and probes the
/// path again on the next monitor cycle.
#[test]
fn nws_sensor_keeps_sampling_after_connection_drops_reset_its_probe() {
    let mut grid = paper_testbed(7).build();
    grid.warm_up(SimDuration::from_secs(300));
    let alpha4 = grid.node_of(grid.host_id("alpha4").unwrap());
    let alpha1 = grid.node_of(grid.host_id("alpha1").unwrap());
    // Drops every 10 ms for 20 s: some land while a probe on the
    // alpha4 -> alpha1 path is in flight.
    let start = grid.now();
    let mut plan = FaultPlan::new();
    for i in 1..=2_000 {
        plan = plan.connection_drop(start + SimDuration::from_millis(10 * i), alpha4);
    }
    grid.install_fault_plan(plan);
    let end = start + SimDuration::from_secs(600);
    grid.advance_to(end);
    assert!(grid.metrics_snapshot().counter("simnet.flows_dropped") > 0);
    let last = grid
        .nws()
        .sensor(alpha4, alpha1)
        .and_then(|s| s.series().latest())
        .expect("the alpha4 -> alpha1 path is monitored")
        .time;
    assert!(
        end - last <= SimDuration::from_secs(30),
        "alpha4 -> alpha1 sensor stopped sampling at {last} (run ends at {end})"
    );
}
