//! Zero-allocation steady state for the NWS forecaster battery.
//!
//! A counting global allocator wraps the system allocator. Once 64
//! warm-up updates have filled every window of the battery, each further
//! `MetaForecaster::update` + `forecast` must not touch the heap: every
//! bandwidth probe runs the whole battery, so an allocation here is paid
//! on every sensor of every path for the whole simulation.
//!
//! The allocator lives here (an integration test is its own crate root)
//! because every library crate carries `#![forbid(unsafe_code)]` and a
//! `GlobalAlloc` impl is necessarily unsafe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use datagrid_simnet::rng::SimRng;
use datagrid_sysmon::nws::forecast::MetaForecaster;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread, so tests running in
    /// parallel are not charged for each other's allocations.
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

#[test]
fn warmed_battery_update_allocates_nothing() {
    let mut rng = SimRng::seed_from_u64(11);
    // Noise with level shifts and ties, so the adaptive windows move.
    let values: Vec<f64> = (0..1064)
        .map(|i| {
            let level = if (i / 150) % 2 == 0 { 40.0 } else { 90.0 };
            (rng.normal(level, 8.0).max(0.0) / 4.0).round() * 4.0
        })
        .collect();
    let (warm_up, measured) = values.split_at(64);

    let mut meta = MetaForecaster::nws_battery();
    for &v in warm_up {
        meta.update(v);
    }
    let before = allocs();
    for &v in measured {
        meta.update(v);
        black_box(meta.forecast());
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "warmed battery updates must not allocate (saw {} allocations)",
        after - before
    );
    assert!(meta.selected().is_some());
}
