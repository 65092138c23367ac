//! Allocation discipline of the replay loop and of replica scoring.
//!
//! A counting global allocator measures two identical
//! [`DataGrid::replay_concurrent`] runs on the same grid. The first run
//! sizes every reusable structure (dispatch maps, candidate buffer, score
//! scratch, engine slab); the second must (a) allocate strictly less —
//! proof the buffers are actually reused — and (b) allocate exactly the
//! pinned per-job count: with recording disabled, steady-state event
//! dispatch (flow progress, session timers, probe bookkeeping) is
//! allocation-free, so a new allocation anywhere on the replay path
//! (`Driver::run`, `on_session_event`) moves the count and fails the test.
//!
//! [`DataGrid::score_candidates_into`] is pinned the same way, per call,
//! on the warmed cache-hit path and on the miss path.
//!
//! The allocator lives here (an integration test is its own crate root)
//! because every library crate carries `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use datagrid_core::grid::{DataGrid, FetchOptions, GridBuilder};
use datagrid_core::recovery::RecoveryOptions;
use datagrid_core::ReplayJob;
use datagrid_obs::metrics::MetricsRegistry;
use datagrid_simnet::prelude::*;
use datagrid_sysmon::host::HostSpec;
use datagrid_sysmon::load::LoadModel;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. The tests below run in
    /// parallel, so one process-wide count would charge each test for the
    /// other's allocations; each test reads only its own thread's count.
    /// `const`-initialised and without a destructor, so the allocator can
    /// touch it at any time.
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

/// A client and two replica hosts behind one switch, `file-a` and
/// `file-b` each on both replica hosts, recording off and monitoring
/// warmed up.
fn warmed_grid() -> DataGrid {
    let mut b = GridBuilder::new(41);
    let client = b.add_host(
        HostSpec::new("client").with_cpu(2, 2.0),
        LoadModel::Constant(0.1),
        LoadModel::Constant(0.1),
    );
    let fast = b.add_host(
        HostSpec::new("fast").with_cpu(1, 2.8),
        LoadModel::Constant(0.2),
        LoadModel::Constant(0.1),
    );
    let slow = b.add_host(
        HostSpec::new("slow").with_cpu(1, 0.9),
        LoadModel::Constant(0.4),
        LoadModel::Constant(0.3),
    );
    let sw = b.add_switch("switch");
    let ms = SimDuration::from_millis;
    b.topology_mut()
        .add_duplex_link(client, sw, LinkSpec::new(Bandwidth::from_gbps(1.0), ms(1)));
    b.topology_mut()
        .add_duplex_link(fast, sw, LinkSpec::new(Bandwidth::from_mbps(100.0), ms(4)));
    b.topology_mut()
        .add_duplex_link(slow, sw, LinkSpec::new(Bandwidth::from_mbps(50.0), ms(10)));
    b.monitor_all_host_pairs();
    let mut grid = b.build();
    // Steady-state claim: no event history, no audit, no timeline.
    grid.recorder_mut().set_enabled(false);
    grid.set_network_validation(false);
    for lfn in ["file-a", "file-b"] {
        grid.catalog_mut()
            .register_logical(lfn.parse().unwrap(), 24 << 20)
            .unwrap();
        grid.place_replica(lfn, "fast").unwrap();
        grid.place_replica(lfn, "slow").unwrap();
    }
    grid.warm_up(SimDuration::from_secs(120));
    grid
}

/// Allocations of a steady-state replay of 24 staggered fetches (about 21
/// per job, none per event, monitor tick, probe or metric update):
/// outcome records, session boxes, ranked candidate lists, phase records
/// and the driver's routing map. Any allocation added per event or per
/// decision changes this number.
const STEADY_REPLAY_ALLOCS: u64 = 510;

#[test]
fn replay_allocations_scale_with_jobs_not_events() {
    let mut grid = warmed_grid();
    let client_id = grid.host_id("client").unwrap();
    let jobs: Vec<ReplayJob> = (0..24)
        .map(|i| ReplayJob {
            at: grid.now() + SimDuration::from_millis(200 * i),
            client: client_id,
            lfn: "file-a".to_string(),
        })
        .collect();

    // Warm-up run: sizes the dispatch maps, candidate buffer and slab.
    let a0 = allocs();
    let report = grid
        .replay_concurrent(&jobs, FetchOptions::default(), &RecoveryOptions::default())
        .unwrap();
    assert_eq!(report.completed(), jobs.len());
    let warm_allocs = allocs() - a0;

    // Measured run: identical workload on the warmed grid.
    let e1 = grid.network().stats().events_processed;
    let a1 = allocs();
    let report = grid
        .replay_concurrent(&jobs, FetchOptions::default(), &RecoveryOptions::default())
        .unwrap();
    assert_eq!(report.completed(), jobs.len());
    let steady_allocs = allocs() - a1;
    let steady_events = grid.network().stats().events_processed - e1;

    assert!(
        steady_allocs < warm_allocs,
        "second replay must reuse warmed buffers: {steady_allocs} vs {warm_allocs}"
    );
    assert!(
        steady_events > 10 * jobs.len() as u64,
        "workload too small to distinguish per-event from per-job costs \
         ({steady_events} events)"
    );
    assert_eq!(
        steady_allocs,
        STEADY_REPLAY_ALLOCS,
        "steady replay of {} jobs / {steady_events} events changed its allocation count",
        jobs.len()
    );
}

/// Allocations of each call in `calls` rounds of `f`.
fn per_call(calls: usize, mut f: impl FnMut(usize)) -> Vec<u64> {
    (0..calls)
        .map(|i| {
            let before = allocs();
            f(i);
            allocs() - before
        })
        .collect()
}

#[test]
fn score_candidates_into_allocates_a_fixed_count_per_call() {
    let grid = warmed_grid();
    let client = grid.host_id("client").unwrap();
    let mut out = Vec::new();
    grid.score_candidates_into(client, "file-a", &mut out)
        .unwrap();
    let candidates = out.len() as u64;
    assert_eq!(candidates, 2);

    // Hit path: the cached ranking is copied out. Each candidate clones
    // its host name and its location (a host and a path string): three
    // allocations per candidate, nothing else.
    let (hits0, misses0) = grid.score_scratch_stats();
    let hit = per_call(8, |_| {
        grid.score_candidates_into(client, "file-a", &mut out)
            .unwrap();
    });
    assert_eq!(grid.score_scratch_stats(), (hits0 + 8, misses0));
    assert_eq!(
        hit,
        vec![3 * candidates; 8],
        "hit-path allocations per call"
    );

    // Miss path: alternating files defeats the one-entry-per-client
    // cache, so every call re-derives and re-stores the ranking: one
    // logical-name string, then per candidate three allocations to build
    // it and three more to cache it.
    let miss = per_call(8, |i| {
        let lfn = if i % 2 == 0 { "file-b" } else { "file-a" };
        grid.score_candidates_into(client, lfn, &mut out).unwrap();
    });
    assert_eq!(grid.score_scratch_stats(), (hits0 + 8, misses0 + 8));
    assert_eq!(
        miss,
        vec![1 + 6 * candidates; 8],
        "miss-path allocations per call"
    );
}

#[test]
fn metric_updates_allocate_only_on_a_names_first_use() {
    let mut m = MetricsRegistry::new();
    let mut update = |i: usize| match i % 4 {
        0 => m.inc("transfer.count"),
        1 => m.add("transfer.payload_bytes", 1 << 20),
        2 => m.set_gauge("host.client.cpu_idle", 0.9),
        _ => m
            .register_histogram("transfer.seconds", &[1.0, 10.0])
            .observe(2.0),
    };
    let first = per_call(4, &mut update);
    assert!(
        first.iter().all(|&n| n > 0),
        "a new name allocates its key: {first:?}"
    );
    assert_eq!(
        per_call(8, &mut update),
        vec![0; 8],
        "updates of existing names"
    );
}
