//! Zero-allocation steady state for the engine's event dispatch.
//!
//! A counting global allocator wraps the system allocator; after one
//! warm-up churn cycle has sized every reusable buffer (slab, queue,
//! solver scratch, per-link indexes), draining a second identical flow
//! population through [`NetSim::next_event`] must not touch the heap at
//! all. This is the allocation-free-dispatch mirror of the
//! `shrink_scratch` high-water regression tests: those bound how big the
//! scratch may stay, this proves the hot loop never grows it.
//!
//! The allocator lives here (an integration test is its own crate root)
//! because every library crate carries `#![forbid(unsafe_code)]` and a
//! `GlobalAlloc` impl is necessarily unsafe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use datagrid_simnet::prelude::*;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. The tests below run in
    /// parallel, so one process-wide count would charge each test for the
    /// other's allocations; every test drains its simulator on its own
    /// thread and reads only that thread's count. `const`-initialised and
    /// without a destructor, so the allocator can touch it at any time.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// a -- hub -- b plus hub -- c, all 100 Mbps / 1 ms.
fn star() -> (Topology, NodeId, NodeId, NodeId) {
    let mut topo = Topology::new();
    let a = topo.add_node("a");
    let b = topo.add_node("b");
    let c = topo.add_node("c");
    let hub = topo.add_node("hub");
    let spec = || LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_millis(1));
    topo.add_duplex_link(a, hub, spec());
    topo.add_duplex_link(b, hub, spec());
    topo.add_duplex_link(c, hub, spec());
    (topo, a, b, c)
}

fn churn_cycle(sim: &mut NetSim, a: NodeId, b: NodeId, c: NodeId, flows: usize) {
    for i in 0..flows {
        let (src, dst) = if i % 2 == 0 { (a, b) } else { (a, c) };
        sim.start_flow(FlowSpec::new(src, dst, 4_000_000 + (i as u64) * 37_000));
    }
    while sim.next_event().is_some() {}
    assert_eq!(sim.active_flow_count(), 0);
}

#[test]
fn warmed_event_drain_allocates_nothing() {
    let (topo, a, b, c) = star();
    let mut sim = NetSim::new(topo, 7);
    // Certificate checking builds diagnostic state per solve; this test is
    // about the dispatch path, so audit the allocation claim unclouded.
    sim.set_validation(false);
    // Auto-shrink would legitimately reallocate scratch mid-drain.
    sim.set_auto_shrink(false);

    const FLOWS: usize = 96;
    // Cycle 1 sizes every buffer; cycle 2 confirms the sizing is stable.
    churn_cycle(&mut sim, a, b, c, FLOWS);
    churn_cycle(&mut sim, a, b, c, FLOWS);

    // Measured cycle: identical population, buffers warm. Flow *starts*
    // are outside the claim (routes are Arc-shared but id bookkeeping may
    // rehash); the drained event loop itself must be allocation-free.
    for i in 0..FLOWS {
        let (src, dst) = if i % 2 == 0 { (a, b) } else { (a, c) };
        sim.start_flow(FlowSpec::new(src, dst, 4_000_000 + (i as u64) * 37_000));
    }
    let before = allocs();
    while sim.next_event().is_some() {}
    let after = allocs();
    assert_eq!(sim.active_flow_count(), 0);
    assert_eq!(
        after - before,
        0,
        "warmed event drain must not allocate (saw {} allocations)",
        after - before
    );
}

#[test]
fn warmed_drain_stays_allocation_free_with_batching_off() {
    // The per-event solve path (differential-testing mode) shares the
    // same reusable scratch; it must be equally allocation-free.
    let (topo, a, b, c) = star();
    let mut sim = NetSim::new(topo, 7);
    sim.set_validation(false);
    sim.set_auto_shrink(false);
    sim.set_event_batching(false);

    const FLOWS: usize = 64;
    churn_cycle(&mut sim, a, b, c, FLOWS);
    churn_cycle(&mut sim, a, b, c, FLOWS);

    for i in 0..FLOWS {
        let (src, dst) = if i % 2 == 0 { (a, b) } else { (a, c) };
        sim.start_flow(FlowSpec::new(src, dst, 4_000_000 + (i as u64) * 37_000));
    }
    let before = allocs();
    while sim.next_event().is_some() {}
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "per-event drain must not allocate (saw {} allocations)",
        after - before
    );
}

#[test]
fn warmed_churn_through_live_flow_classes_allocates_nothing() {
    // Flows that join and leave (route, cap) classes other flows keep
    // alive touch only the classes' member lists, and classes minted and
    // released within the cycle reuse their ids, their table entries and
    // their per-link index slots: once warm, a whole churn cycle — starts
    // included — allocates nothing.
    let (topo, a, b, c) = star();
    let mut sim = NetSim::new(topo, 7);
    sim.set_validation(false);
    sim.set_auto_shrink(false);
    // One long flow per class keeps both classes live throughout.
    sim.start_flow(FlowSpec::new(a, b, 1 << 50));
    sim.start_flow(FlowSpec::new(a, c, 1 << 50));
    const ANCHORS: usize = 2;

    const FLOWS: usize = 64;
    let cycle = |sim: &mut NetSim| {
        for i in 0..FLOWS {
            let (src, dst) = if i % 2 == 0 { (a, b) } else { (a, c) };
            let spec = FlowSpec::new(src, dst, 4_000_000 + (i as u64) * 37_000);
            // Every fourth flow is capped, in a class of its own for a
            // few flows: three classes live and die within the cycle.
            let spec = if i % 4 == 3 {
                spec.with_cap(Bandwidth::from_mbps([5.0, 7.0, 11.0][i / 4 % 3]))
            } else {
                spec
            };
            sim.start_flow(spec);
        }
        while sim.active_flow_count() > ANCHORS {
            sim.next_event().expect("churn flows complete");
        }
    };
    cycle(&mut sim);
    cycle(&mut sim);

    let before = allocs();
    cycle(&mut sim);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "warmed class churn must not allocate (saw {} allocations)",
        after - before
    );
}

#[test]
fn warmed_drain_with_repeated_rate_changes_allocates_nothing() {
    // Timer pairs squeeze one flow to 0.5 Mbps and release it, which moves
    // the rates of the whole shared component: each moved flow's queued
    // completion is replaced in place (a keyed re-sift in the event
    // queue), many times per flow, on top of the reschedules every
    // completion triggers.
    let (topo, a, b, c) = star();
    let mut sim = NetSim::new(topo, 7);
    sim.set_validation(false);
    sim.set_auto_shrink(false);

    const FLOWS: usize = 48;
    const FLIPS: u64 = 200;
    let mut ids: Vec<FlowId> = Vec::with_capacity(FLOWS);
    let mut cycle = |sim: &mut NetSim, measure: bool| -> (u64, u64) {
        ids.clear();
        for i in 0..FLOWS {
            let (src, dst) = if i % 2 == 0 { (a, b) } else { (a, c) };
            ids.push(sim.start_flow(FlowSpec::new(src, dst, 3_000_000 + (i as u64) * 41_000)));
        }
        for k in 0..FLIPS {
            sim.schedule_timer_after(SimDuration::from_millis(40 * (k + 1)), k);
        }
        let before = allocs();
        let mut rate_changes = 0;
        while let Some(ev) = sim.next_event() {
            if let EventKind::TimerFired(k) = ev.kind {
                let id = ids[(k / 2) as usize % FLOWS];
                let cap = if k % 2 == 0 { 0.5 } else { 60.0 };
                let old = sim.flow_rate(id);
                if sim.set_flow_cap(id, Bandwidth::from_mbps(cap)) && sim.flow_rate(id) != old {
                    rate_changes += 1;
                }
            }
        }
        assert_eq!(sim.active_flow_count(), 0);
        (if measure { allocs() - before } else { 0 }, rate_changes)
    };
    cycle(&mut sim, false);
    cycle(&mut sim, false);

    let solves = sim.stats().incremental_solves;
    let (drain_allocs, rate_changes) = cycle(&mut sim, true);
    assert!(
        rate_changes > 50,
        "cap flips must keep moving rates ({rate_changes} changes)"
    );
    assert!(
        sim.stats().incremental_solves - solves > FLOWS as u64 + rate_changes,
        "every flip and completion re-solves the shared component"
    );
    assert_eq!(
        drain_allocs, 0,
        "warmed drain with repeated rate changes must not allocate (saw {drain_allocs})"
    );
}

#[test]
fn warmed_scoped_cap_burst_allocates_nothing() {
    // A monitor tick re-caps every live flow inside one `batched` scope:
    // the deferred seeds and the one cohort-end solve reuse the same
    // scratch as event cohorts, so once warm the burst allocates nothing.
    let (topo, a, b, c) = star();
    let mut sim = NetSim::new(topo, 7);
    sim.set_validation(false);
    sim.set_auto_shrink(false);

    const FLOWS: usize = 64;
    let ids: Vec<FlowId> = (0..FLOWS)
        .map(|i| {
            let (src, dst) = if i % 2 == 0 { (a, b) } else { (a, c) };
            sim.start_flow(FlowSpec::new(src, dst, 1 << 40))
        })
        .collect();
    let burst = |sim: &mut NetSim, round: usize| {
        sim.batched(|sim| {
            for (i, &id) in ids.iter().enumerate() {
                let mbps = [0.5, 2.0, 8.0][(i + round) % 3];
                assert!(sim.set_flow_cap(id, Bandwidth::from_mbps(mbps)));
            }
        });
    };
    // Rounds 0..3 visit every (route, cap) class; round 3 is measured.
    for round in 0..3 {
        burst(&mut sim, round);
    }
    let solves = sim.stats().incremental_solves;
    let before = allocs();
    burst(&mut sim, 3);
    let after = allocs();
    assert_eq!(sim.stats().incremental_solves - solves, 1);
    assert_eq!(
        after - before,
        0,
        "warmed scoped cap burst must not allocate (saw {} allocations)",
        after - before
    );
}
