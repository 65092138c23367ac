//! Continuous telemetry is a pure function of the seed. Same seed must
//! reproduce the health-timeline JSON, the rendered health report and the
//! `BENCH_grid.json` body byte-for-byte (in default builds — `prof-timing`
//! adds wall-clock fields that are excluded by construction); different
//! seeds must actually change the recorded timeline.

use datagrid::obs::prof::TIMING_ENABLED;
use datagrid::prelude::*;
use proptest::prelude::*;

fn quick_cfg(files: usize) -> GridScaleConfig {
    GridScaleConfig {
        files,
        warm: SimDuration::from_secs(30),
        ..GridScaleConfig::default()
    }
}

/// The cell minus its phase wall-clock times, the only fields that vary
/// run to run (and only in `prof-timing` builds).
fn counts_only(cell: &GridScaleCell) -> GridScaleCell {
    let mut cell = cell.clone();
    for p in &mut cell.phases {
        (p.total_ns, p.self_ns) = (0, 0);
    }
    cell
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two sweeps from the same seed emit byte-identical timeline JSON,
    /// health reports, cells (phase profile included) and report bodies.
    #[test]
    fn same_seed_byte_identical_timeline_and_profile(
        seed in 0u64..1_000_000,
        clients in 2usize..6,
        files in 4usize..10,
    ) {
        let cfg = quick_cfg(files);
        let counts = [clients, clients + 2];
        let a = run_grid_scale(seed, &counts, &cfg);
        let b = run_grid_scale(seed, &counts, &cfg);
        prop_assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            prop_assert_eq!(&ra.timeline_json, &rb.timeline_json);
            prop_assert_eq!(&ra.health_report, &rb.health_report);
            prop_assert_eq!(counts_only(&ra.cell), counts_only(&rb.cell));
            // The timeline is a real record, not an empty shell.
            prop_assert!(ra.cell.windows > 0);
            prop_assert!(ra.timeline_json.contains("\"hottest_links\""));
        }
        if !TIMING_ENABLED {
            let ja = GridScaleReport::from_runs(seed, &a).render_json();
            let jb = GridScaleReport::from_runs(seed, &b).render_json();
            prop_assert_eq!(ja, jb);
        }
    }

    /// Different seeds produce genuinely different timelines and reports.
    #[test]
    fn different_seeds_different_timelines(
        seed in 0u64..1_000_000,
        clients in 3usize..8,
    ) {
        let cfg = quick_cfg(6);
        let other = seed ^ 0xdead_beef;
        let a = run_grid_scale(seed, &[clients], &cfg);
        let b = run_grid_scale(other, &[clients], &cfg);
        prop_assert_ne!(
            &a[0].timeline_json, &b[0].timeline_json,
            "timelines must diverge across seeds"
        );
        if !TIMING_ENABLED {
            let ja = GridScaleReport::from_runs(seed, &a).render_json();
            let jb = GridScaleReport::from_runs(other, &b).render_json();
            prop_assert_ne!(ja, jb, "reports must diverge across seeds");
        }
    }
}
