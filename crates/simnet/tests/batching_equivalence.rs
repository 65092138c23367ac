//! Cohort batching must be invisible: over random topologies, flow
//! populations, and fault schedules, the batched engine (one solver pass
//! per same-instant event cohort) and the per-event engine
//! (`set_event_batching(false)`) must emit byte-identical public event
//! streams and agree on every counter except the solver-pass bookkeeping
//! the batching exists to change.

use datagrid_simnet::fault::FaultPlan;
use datagrid_simnet::prelude::*;
use proptest::prelude::*;

/// Builds a dumbbell: srcs -- hub1 -- hub2 -- dsts, with a random-width
/// middle link so different cases stress different contention regimes.
/// Returns every directed link so fault schedules can target the lot.
#[allow(clippy::type_complexity)]
fn dumbbell(
    src_count: usize,
    dst_count: usize,
    middle_mbps: f64,
) -> (Topology, Vec<NodeId>, Vec<NodeId>, Vec<LinkId>) {
    let mut topo = Topology::new();
    let mut links = Vec::new();
    let hub1 = topo.add_node("hub1");
    let hub2 = topo.add_node("hub2");
    let (f, r) = topo.add_duplex_link(
        hub1,
        hub2,
        LinkSpec::new(
            Bandwidth::from_mbps(middle_mbps),
            SimDuration::from_millis(5),
        ),
    );
    links.extend([f, r]);
    let edge = || LinkSpec::new(Bandwidth::from_mbps(1000.0), SimDuration::from_millis(1));
    let srcs: Vec<NodeId> = (0..src_count)
        .map(|i| {
            let n = topo.add_node(format!("s{i}"));
            let (f, r) = topo.add_duplex_link(n, hub1, edge());
            links.extend([f, r]);
            n
        })
        .collect();
    let dsts: Vec<NodeId> = (0..dst_count)
        .map(|i| {
            let n = topo.add_node(format!("d{i}"));
            let (f, r) = topo.add_duplex_link(n, hub2, edge());
            links.extend([f, r]);
            n
        })
        .collect();
    (topo, srcs, dsts, links)
}

/// Runs one engine to exhaustion and renders its public event stream as
/// one line per event — the byte-level artifact the equivalence claim is
/// about.
fn drain_log(sim: &mut NetSim) -> String {
    let mut log = String::new();
    while let Some(ev) = sim.next_event() {
        log.push_str(&format!("{:?} {:?}\n", ev.time, ev.kind));
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same topology, same flows (several same-instant cohorts by
    /// construction), same fault schedule: the public event streams must
    /// be byte-identical with batching on and off, and every stat except
    /// the solver-pass counters must agree.
    #[test]
    fn batched_and_per_event_engines_emit_identical_streams(
        seed in 0u64..1_000_000,
        sizes in proptest::collection::vec(100_000u64..3_000_000, 4..24),
        middle_mbps in 20.0f64..300.0,
        srcs in 2usize..5,
        dsts in 2usize..5,
        flap_rate in 0.0f64..0.4,
    ) {
        let build = |batching: bool| {
            let (topo, s, d, links) = dumbbell(srcs, dsts, middle_mbps);
            let mut sim = NetSim::new(topo, seed);
            sim.set_event_batching(batching);
            if flap_rate > 0.01 {
                let mut frng = SimRng::seed_from_u64(seed ^ 0xFA017);
                sim.install_fault_plan(FaultPlan::random_link_flaps(
                    &mut frng,
                    &links,
                    SimDuration::from_secs(120),
                    flap_rate,
                    SimDuration::from_secs(2),
                ));
            }
            let mut rng = SimRng::seed_from_u64(seed);
            for (i, &size) in sizes.iter().enumerate() {
                let src = s[rng.below(s.len() as u64) as usize];
                let dst = d[rng.below(d.len() as u64) as usize];
                // Duplicate every third size so several flows share both
                // start instant and (often) completion instant — real
                // same-instant cohorts, not just the t=0 burst.
                let size = if i % 3 == 0 { size - (size % 1000) } else { size };
                sim.start_flow(FlowSpec::new(src, dst, size));
            }
            sim
        };

        let mut batched = build(true);
        let mut per_event = build(false);
        let log_a = drain_log(&mut batched);
        let log_b = drain_log(&mut per_event);
        prop_assert_eq!(log_a, log_b, "public event streams diverged");

        let a = batched.stats();
        let b = per_event.stats();
        prop_assert_eq!(a.events_processed, b.events_processed);
        prop_assert_eq!(a.flows_started, b.flows_started);
        prop_assert_eq!(a.flows_completed, b.flows_completed);
        prop_assert_eq!(a.bytes_completed, b.bytes_completed);
        prop_assert_eq!(a.fault_transitions, b.fault_transitions);
        prop_assert_eq!(a.flows_dropped, b.flows_dropped);
        // The whole point of batching: never more solver passes than the
        // per-event engine, and the per-event engine never batches.
        prop_assert_eq!(b.solves_avoided, 0);
        prop_assert_eq!(b.batched_solves, 0);
        let passes = |s: &EngineStats| s.incremental_solves + s.full_solves + s.uncongested_solves;
        prop_assert!(
            passes(&a) <= passes(&b),
            "batching increased solver passes: {} vs {}",
            passes(&a),
            passes(&b)
        );
    }
}

/// Solver passes so far.
fn solves(sim: &NetSim) -> u64 {
    let s = sim.stats();
    s.incremental_solves + s.full_solves + s.uncongested_solves
}

/// Every listed flow's rate as raw bits (`None` once it has ended).
fn rate_bits(sim: &NetSim, ids: &[FlowId]) -> Vec<Option<u64>> {
    ids.iter()
        .map(|&id| sim.flow_rate(id).map(|r| r.as_bps().to_bits()))
        .collect()
}

/// A dumbbell carrying `flows` user flows, advanced to its first timer
/// at t = 1 s so every flow has a solved rate and some progress.
fn capped_population(seed: u64, flows: usize, batching: bool) -> (NetSim, Vec<FlowId>) {
    let (topo, s, d, _) = dumbbell(3, 3, 120.0);
    let mut sim = NetSim::new(topo, seed);
    sim.set_event_batching(batching);
    let mut rng = SimRng::seed_from_u64(seed);
    let ids = (0..flows)
        .map(|i| {
            let src = s[rng.below(s.len() as u64) as usize];
            let dst = d[rng.below(d.len() as u64) as usize];
            sim.start_flow(FlowSpec::new(src, dst, 20_000_000 + i as u64 * 7_919))
        })
        .collect();
    sim.schedule_timer_after(SimDuration::from_secs(1), 0);
    assert!(matches!(
        sim.next_event().map(|e| e.kind),
        Some(EventKind::TimerFired(0))
    ));
    (sim, ids)
}

/// Re-caps every flow, in id order, from a seeded draw (some caps repeat,
/// some bind, some are slack).
fn recap_all(sim: &mut NetSim, ids: &[FlowId], seed: u64) {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xCA95);
    for &id in ids {
        let mbps = [2.0, 5.0, 15.0, 40.0, 500.0][rng.below(5) as usize];
        assert!(sim.set_flow_cap(id, Bandwidth::from_mbps(mbps)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N re-caps inside one `batched` scope run exactly one solve, and the
    /// rates, completion times and public event order that follow are
    /// bit-identical to the same N calls made one solve each.
    #[test]
    fn scoped_cap_burst_solves_once_and_matches_unscoped(
        seed in 0u64..1_000_000,
        flows in 2usize..24,
    ) {
        let (mut scoped, ids) = capped_population(seed, flows, true);
        let (mut unscoped, _) = capped_population(seed, flows, true);

        let before = solves(&scoped);
        scoped.batched(|sim| recap_all(sim, &ids, seed));
        prop_assert_eq!(solves(&scoped) - before, 1);

        let before = solves(&unscoped);
        recap_all(&mut unscoped, &ids, seed);
        prop_assert_eq!(solves(&unscoped) - before, flows as u64);

        prop_assert_eq!(rate_bits(&scoped, &ids), rate_bits(&unscoped, &ids));
        prop_assert_eq!(drain_log(&mut scoped), drain_log(&mut unscoped));
    }
}

#[test]
fn scope_is_a_no_op_with_batching_off() {
    const FLOWS: usize = 12;
    let (mut sim, ids) = capped_population(11, FLOWS, false);
    let before = solves(&sim);
    sim.batched(|sim| recap_all(sim, &ids, 11));
    assert_eq!(solves(&sim) - before, FLOWS as u64);
    assert_eq!(sim.stats().batched_solves, 0);
    assert_eq!(sim.stats().solves_avoided, 0);
}

#[test]
fn nested_scope_joins_the_open_one() {
    let (mut sim, ids) = capped_population(5, 8, true);
    let (head, tail) = ids.split_at(3);
    let before = sim.stats();
    sim.batched(|sim| {
        recap_all(sim, head, 5);
        // The inner scope must not close the outer cohort early.
        sim.batched(|sim| recap_all(sim, tail, 6));
        recap_all(sim, head, 7);
    });
    let after = sim.stats();
    assert_eq!(after.incremental_solves - before.incremental_solves, 1);
    assert_eq!(after.batched_solves - before.batched_solves, 1);
    assert_eq!(after.solves_avoided - before.solves_avoided, 10);
}

#[test]
fn solved_state_reads_before_the_first_mutation_are_allowed() {
    // A handler may read rates at the top of its scope (a watchdog checks
    // for stalls before aborting): nothing is pending yet.
    let (mut sim, ids) = capped_population(3, 4, true);
    let rate = sim.batched(|sim| {
        let rate = sim.flow_rate(ids[0]);
        recap_all(sim, &ids, 3);
        rate
    });
    assert!(rate.is_some_and(|r| r.as_bps() > 0.0));
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "solve pending")]
fn rate_read_with_a_pending_solve_trips_the_assertion() {
    let (mut sim, ids) = capped_population(3, 4, true);
    sim.batched(|sim| {
        sim.set_flow_cap(ids[0], Bandwidth::from_mbps(1.0));
        sim.flow_rate(ids[1])
    });
}
