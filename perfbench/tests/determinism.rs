//! Every workload at a tiny size on two seeds: the same seed reproduces
//! the fetch digest exactly, with or without tracing, and another seed
//! changes it.

use datagrid_perfbench::trace::Tracer;
use datagrid_perfbench::workload::{
    instance_seed, run_probe, run_rep, Size, Workload, SCORE_PROBE_CALLS,
};

const SEEDS: [u64; 2] = [20_050_905, 7];

#[test]
fn digests_follow_the_seed_and_ignore_tracing() {
    for w in Workload::ALL {
        let a = run_rep(w, Size::Tiny, SEEDS[0], Tracer::new(false));
        let traced = run_rep(w, Size::Tiny, SEEDS[0], Tracer::new(true));
        let b = run_rep(w, Size::Tiny, SEEDS[1], Tracer::new(false));
        for rep in [&a, &traced, &b] {
            assert!(
                rep.violations.is_empty(),
                "{}: {:?}",
                w.name(),
                rep.violations
            );
            assert!(!rep.fetches.is_empty(), "{}: no fetches", w.name());
        }
        assert_eq!(a.digest_lines(), traced.digest_lines(), "{}", w.name());
        assert_ne!(a.digest(), b.digest(), "{}", w.name());
        assert!(a.spans.is_empty());
        let names: Vec<&str> = traced.spans.iter().map(|s| s.name).collect();
        for layer in ["testbed.build", "sysmon.warm_up", "obs.export"] {
            assert!(names.contains(&layer), "{}: no {layer} span", w.name());
        }
    }
}

#[test]
fn probes_hit_and_miss_as_intended() {
    let mut idle_events = Vec::new();
    for w in Workload::ALL {
        let p = run_probe(w, Size::Tiny, SEEDS[1], Tracer::new(true));
        assert!(p.violations.is_empty(), "{}: {:?}", w.name(), p.violations);
        assert!(p.idle_hour_events > 0, "{}", w.name());
        for name in ["core.score_miss", "core.score_hit"] {
            let n = p.spans.iter().filter(|s| s.name == name).count();
            assert_eq!(n, SCORE_PROBE_CALLS, "{}: {name}", w.name());
        }
        idle_events.push(p.idle_hour_events);
    }
    // Every workload shares the world, and the idle hour runs before any
    // fault plan, so faulted-failover's idle hour is as quiet as the rest.
    assert!(
        idle_events.iter().all(|&n| n == idle_events[0]),
        "{idle_events:?}"
    );
}

#[test]
fn fetch_counts_match_the_workload_shapes() {
    for w in Workload::ALL {
        let rep = run_rep(w, Size::Tiny, SEEDS[0], Tracer::new(false));
        assert_eq!(rep.fetches.len(), w.fetches(Size::Tiny), "{}", w.name());
    }
    assert_eq!(Workload::BurstContended.fetches(Size::Full), 2048);
    assert_eq!(Workload::SteadySparse.fetches(Size::Full), 12_288);
    assert_eq!(Workload::FaultedFailover.fetches(Size::Full), 1536);
    assert_eq!(Workload::PaperSequential.fetches(Size::Full), 8000);
}

#[test]
fn instance_zero_replays_the_seed_itself() {
    assert_eq!(instance_seed(SEEDS[0], 0), SEEDS[0]);
    let seeds: Vec<u64> = (0..16).map(|i| instance_seed(SEEDS[0], i)).collect();
    for (i, s) in seeds.iter().enumerate() {
        assert!(!seeds[..i].contains(s), "instance {i} repeats a seed");
    }
}
