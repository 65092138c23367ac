//! Grid-scale replay regressions: the concurrent replay path must
//! reproduce the paper's single-client behaviour exactly, and failover
//! under load must stay scoped to the clients the fault actually hits.

use datagrid::prelude::*;
use datagrid::testbed::sites::paper_testbed_with;

const MB: u64 = 1 << 20;

/// Table 1 pin: `SelectionMode::Static` plus a single replayed client
/// reproduces the paper's ranking — alpha4 (local site) over gridhit0
/// (fast WAN) over lz02 (30 Mbps bottleneck) — through the exact same
/// audit record a plain `fetch` would write.
#[test]
fn static_single_client_reproduces_paper_ranking() {
    let mut builder = paper_testbed(555);
    builder.selection_mode(SelectionMode::Static);
    let mut grid = builder.build();
    grid.catalog_mut()
        .register_logical("file-d".parse().unwrap(), 32 * MB)
        .unwrap();
    for host in ["alpha4", "hit0", "lz02"] {
        grid.place_replica("file-d", canonical_host(host)).unwrap();
    }
    grid.warm_up(SimDuration::from_secs(120));
    let jobs = [ReplayJob {
        at: grid.now(),
        client: grid.host_id("alpha1").unwrap(),
        lfn: "file-d".to_string(),
    }];
    let report = grid
        .replay_concurrent(&jobs, FetchOptions::default(), &RecoveryOptions::default())
        .unwrap();
    assert_eq!(report.completed(), 1);
    match &report.outcomes[0].status {
        ReplayStatus::Completed { winner, bytes, .. } => {
            assert_eq!(winner, "alpha4");
            assert_eq!(*bytes, 32 * MB);
        }
        other => panic!("expected completion, got {other:?}"),
    }
    let decision = grid.audit().last().expect("replay records its decision");
    assert_eq!(decision.lfn, "file-d");
    assert_eq!(decision.client, "alpha1");
    let mut ranked: Vec<(usize, &str)> = decision
        .candidates
        .iter()
        .map(|c| (c.rank, c.host.as_str()))
        .collect();
    ranked.sort_unstable();
    let hosts_by_rank: Vec<&str> = ranked.into_iter().map(|(_, h)| h).collect();
    assert_eq!(
        hosts_by_rank,
        ["alpha4", "gridhit0", "lz02"],
        "paper Table 1 ranking must survive the replay path"
    );
    // The replay measured the transfer back into the audit record.
    assert!(decision
        .candidates
        .iter()
        .any(|c| c.measured_secs.is_some()));
}

/// Failover under load: a HIT-uplink blackout mid-replay makes the
/// clients fetching from gridhit0 mark it suspect and fall over to the
/// next-best replica, while clients on an unaffected file keep their
/// first choice and record no failover.
#[test]
fn link_blackout_fails_over_affected_clients_only() {
    let (builder, sites) = paper_testbed_with(777, &Calibration::default());
    let mut grid = builder.build();
    grid.catalog_mut()
        .register_logical("file-hit".parse().unwrap(), 256 * MB)
        .unwrap();
    let hit_pfn = grid.place_replica("file-hit", "gridhit0").unwrap();
    grid.place_replica("file-hit", "lz02").unwrap();
    grid.catalog_mut()
        .register_logical("file-thu".parse().unwrap(), 32 * MB)
        .unwrap();
    grid.place_replica("file-thu", "alpha4").unwrap();
    grid.warm_up(SimDuration::from_secs(120));

    let job = |name: &str, lfn: &str| ReplayJob {
        at: grid.now(),
        client: grid.host_id(name).unwrap(),
        lfn: lfn.to_string(),
    };
    let jobs = [
        job("alpha1", "file-hit"),
        job("alpha2", "file-hit"),
        job("alpha3", "file-thu"),
    ];
    // Black out the HIT uplink (both directions) once the transfers are
    // in flight, for longer than any retry budget.
    let mut plan = FaultPlan::new();
    for link in [sites.hit_uplink.0, sites.hit_uplink.1] {
        plan = plan.link_down(
            grid.now() + SimDuration::from_secs(2),
            SimDuration::from_secs(10_000),
            link,
        );
    }
    grid.install_fault_plan(plan);
    let recovery = RecoveryOptions::default()
        .with_retry(
            RetryPolicy::default()
                .with_max_attempts(2)
                .with_base_backoff(SimDuration::from_secs(1)),
        )
        .with_stall_timeout(SimDuration::from_secs(1));
    let report = grid
        .replay_concurrent(&jobs, FetchOptions::default(), &recovery)
        .unwrap();
    assert_eq!(report.completed(), 3, "every client finishes via failover");

    for outcome in &report.outcomes {
        match (outcome.lfn.as_str(), &outcome.status) {
            ("file-hit", ReplayStatus::Completed { winner, bytes, .. }) => {
                assert_eq!(winner, "lz02", "affected clients fall over to next-best");
                assert_eq!(bytes, &(256 * MB));
                assert!(outcome.failovers >= 1, "failover must be recorded");
            }
            ("file-thu", ReplayStatus::Completed { winner, .. }) => {
                assert_eq!(winner, "alpha4", "unaffected client keeps first choice");
                assert_eq!(outcome.failovers, 0, "no failover for unaffected client");
            }
            (lfn, status) => panic!("unexpected outcome for {lfn}: {status:?}"),
        }
    }

    // The abandoned replica is marked suspect in the catalog...
    assert!(grid.catalog().is_suspect(&hit_pfn));
    // ...and the audit trail scopes the failover decisions to the
    // affected file only.
    let failover_lfns: Vec<&str> = grid
        .audit()
        .decisions()
        .filter(|d| d.policy.contains("failover"))
        .map(|d| d.lfn.as_str())
        .collect();
    assert!(
        !failover_lfns.is_empty(),
        "audit must record failover re-decisions"
    );
    assert!(
        failover_lfns.iter().all(|lfn| *lfn == "file-hit"),
        "failover decisions must be scoped to the faulted file, got {failover_lfns:?}"
    );
    let hit_decisions = grid
        .audit()
        .decisions()
        .filter(|d| d.lfn == "file-hit" && d.policy.contains("failover"))
        .count();
    assert!(hit_decisions >= 2, "both affected clients re-decide");
}

/// The hot-path regression the cohort batching exists to fix: in a
/// background-churn workload (many concurrent clients over one grid,
/// all-pairs monitor probes landing on shared ticks), the per-event
/// engine runs one solver pass per flow mutation, so solver passes track
/// arrivals one-for-one. The batched engine must (a) actually batch —
/// `EngineStats::solves_avoided` strictly positive — and (b) finish the
/// same workload with strictly fewer solver passes, while every public
/// number stays identical.
#[test]
fn background_churn_batches_per_arrival_solves() {
    use datagrid::testbed::gridscale::{run_grid_scale_cell, GridScaleConfig};

    let cfg = GridScaleConfig {
        files: 12,
        warm: SimDuration::from_secs(30),
        // Tight arrivals: clients land while earlier transfers (and the
        // monitor's probe flows) are still churning the same components.
        mean_inter_arrival: SimDuration::from_millis(250),
        ..GridScaleConfig::default()
    };
    let batched = run_grid_scale_cell(99, 48, &cfg);
    let per_event = run_grid_scale_cell(
        99,
        48,
        &GridScaleConfig {
            batching: false,
            ..cfg
        },
    );

    // The toggle must be publicly unobservable...
    assert_eq!(batched.cell.completed, per_event.cell.completed);
    assert_eq!(batched.cell.failed, per_event.cell.failed);
    assert_eq!(batched.cell.makespan_s, per_event.cell.makespan_s);
    assert_eq!(batched.cell.p99_s, per_event.cell.p99_s);
    assert_eq!(&batched.obs.events_jsonl, &per_event.obs.events_jsonl);

    // ...while the solver bookkeeping shows the batching did real work.
    assert_eq!(per_event.cell.solves_avoided, 0);
    assert_eq!(per_event.cell.batched_solves, 0);
    assert!(
        batched.cell.solves_avoided > 0,
        "churn workload produced no same-instant cohorts to batch"
    );
    let solves = |c: &datagrid::testbed::gridscale::GridScaleCell| {
        c.incremental_solves + c.full_solves + c.uncongested_solves
    };
    assert!(
        solves(&batched.cell) < solves(&per_event.cell),
        "batching must strictly reduce solver passes: {} vs {}",
        solves(&batched.cell),
        solves(&per_event.cell)
    );
    assert_eq!(
        solves(&per_event.cell) - solves(&batched.cell),
        batched.cell.solves_avoided,
        "every avoided solve must be accounted for"
    );
}
