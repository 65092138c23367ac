//! Satellite lock-down: the grid-scale replay is a pure function of the
//! seed. Same seed (and whatever `DATAGRID_JOBS` this process runs with)
//! must reproduce the obs event log and the `BENCH_grid.json` body
//! byte-for-byte; different seeds must actually change the schedule.

use datagrid::prelude::*;
use datagrid::testbed::gridscale::all_paper_hosts;
use datagrid::testbed::workload::grid_workload;
use proptest::prelude::*;

fn quick_cfg(files: usize) -> GridScaleConfig {
    GridScaleConfig {
        files,
        warm: SimDuration::from_secs(30),
        ..GridScaleConfig::default()
    }
}

/// The rendered `BENCH_grid.json` body line by line, minus the per-phase
/// wall-clock fields `prof-timing` builds add (the only bytes that vary
/// run to run).
fn report_lines(seed: u64, runs: &[GridScaleRun]) -> Vec<String> {
    GridScaleReport::from_runs(seed, runs)
        .render_json()
        .lines()
        .map(|l| l.split(", \"total_ms\"").next().unwrap_or(l).to_string())
        .collect()
}

/// A counter of a metrics JSON export (`"name":<u64>`).
fn counter(metrics_json: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":");
    let at = metrics_json
        .find(&needle)
        .unwrap_or_else(|| panic!("{name} missing from the metrics export"))
        + needle.len();
    let digits: String = metrics_json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("counter value")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two sweeps from the same seed emit byte-identical reports *and*
    /// byte-identical observability exports (event JSONL, selection
    /// audit, metrics) for every cell.
    #[test]
    fn same_seed_byte_identical_report_and_events(
        seed in 0u64..1_000_000,
        clients in 2usize..6,
        files in 4usize..10,
    ) {
        let cfg = quick_cfg(files);
        let counts = [clients, clients + 3];
        let a = run_grid_scale(seed, &counts, &cfg);
        let b = run_grid_scale(seed, &counts, &cfg);
        prop_assert_eq!(report_lines(seed, &a), report_lines(seed, &b));
        prop_assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            prop_assert_eq!(&ra.obs.events_jsonl, &rb.obs.events_jsonl);
            prop_assert_eq!(&ra.obs.audit_jsonl, &rb.obs.audit_jsonl);
            prop_assert_eq!(&ra.obs.metrics_json, &rb.obs.metrics_json);
            // The log is a real replay record, not an empty file.
            prop_assert!(ra.obs.events_jsonl.contains("replay.start"));
            prop_assert!(ra.obs.events_jsonl.contains("replay.end"));
        }
    }

    /// Cohort batching is unobservable from the grid: the batched and
    /// per-event engines replay the same workload into byte-identical
    /// `BENCH_grid.json` bodies (modulo the solver-pass counter and phase
    /// lines the batching exists to change) and byte-identical obs event logs,
    /// selection audits, and metrics (modulo the same counters).
    #[test]
    fn batching_toggle_is_publicly_unobservable(
        seed in 0u64..1_000_000,
        clients in 2usize..7,
        files in 4usize..10,
    ) {
        let cfg = quick_cfg(files);
        let per_event = GridScaleConfig { batching: false, ..cfg };
        let a = run_grid_scale(seed, &[clients], &cfg);
        let b = run_grid_scale(seed, &[clients], &per_event);
        // Only the solver-pass bookkeeping may differ: the engine's solve
        // and cohort counters, the replay's `replay_solves` and
        // `solves_per_decision`, and the `settle/solve` and `settle/batch`
        // phase entries. Decisions, settles, scratch hits and misses,
        // timeline windows and every other phase are still compared.
        let solver_line = |l: &String| {
            !(l.contains("solve") || l.contains("cohort") || l.contains("\"settle/batch\""))
        };
        prop_assert_eq!(
            report_lines(seed, &a).into_iter().filter(solver_line).collect::<Vec<_>>(),
            report_lines(seed, &b).into_iter().filter(solver_line).collect::<Vec<_>>()
        );
        for (ra, rb) in a.iter().zip(&b) {
            prop_assert_eq!(&ra.obs.events_jsonl, &rb.obs.events_jsonl);
            prop_assert_eq!(&ra.obs.audit_jsonl, &rb.obs.audit_jsonl);
            // The metrics export is a single JSON line; mask it at the
            // field level instead. The two transition-certificate counters
            // count solver passes too (one certificate per solve), so they
            // are masked with them, and pinned to the solve count below so
            // the mask cannot hide an uncertified solve.
            let fields = |json: &str| {
                json.split(',')
                    .filter(|f| {
                        !(f.contains("solve")
                            || f.contains("cohort")
                            || f.contains("\"simnet.transitions_certified\"")
                            || f.contains("\"simnet.transition_flows_checked\""))
                    })
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(fields(&ra.obs.metrics_json), fields(&rb.obs.metrics_json));
            for json in [&ra.obs.metrics_json, &rb.obs.metrics_json] {
                let solves = counter(json, "simnet.incremental_solves")
                    + counter(json, "simnet.full_solves")
                    + counter(json, "simnet.uncongested_solves");
                let certified = counter(json, "simnet.transitions_certified");
                // Validation (and with it certification) defaults on in
                // debug builds; a release run certifies all or nothing.
                if cfg!(debug_assertions) {
                    prop_assert_eq!(certified, solves);
                } else {
                    prop_assert!(certified == solves || certified == 0);
                }
            }
            // The per-event run must actually have taken the other path.
            prop_assert!(rb.obs.metrics_json.contains("\"simnet.solves_avoided\":0"));
        }
    }

    /// Different seeds produce genuinely different workload schedules
    /// (arrival times diverge) and different reports.
    #[test]
    fn different_seeds_different_schedules(
        seed in 0u64..1_000_000,
        clients in 3usize..8,
    ) {
        let hosts = all_paper_hosts();
        let spec = GridWorkloadSpec { clients, ..GridWorkloadSpec::default() };
        let wa = grid_workload(&spec, &hosts, seed);
        let wb = grid_workload(&spec, &hosts, seed ^ 0xdead_beef);
        let at = |w: &GridWorkload| -> Vec<SimTime> {
            w.trace.requests().iter().map(|r| r.at).collect::<Vec<_>>()
        };
        prop_assert_ne!(at(&wa), at(&wb), "schedules must diverge across seeds");

        let cfg = quick_cfg(6);
        let ja = GridScaleReport::from_runs(seed, &run_grid_scale(seed, &[clients], &cfg))
            .render_json();
        let jb = GridScaleReport::from_runs(
            seed ^ 0xdead_beef,
            &run_grid_scale(seed ^ 0xdead_beef, &[clients], &cfg),
        )
        .render_json();
        prop_assert_ne!(ja, jb, "reports must diverge across seeds");
    }
}
