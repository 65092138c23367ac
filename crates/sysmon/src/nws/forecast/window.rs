//! A sliding window kept in arrival order and in sorted order at once, so
//! order statistics need no per-update sort or allocation.

use std::collections::VecDeque;

/// The most recent `cap` measurements, twice: oldest-first and ascending.
///
/// Among equal values the sorted copy keeps arrival order, which is the
/// order a stable sort of the arrival-order window leaves. Order
/// statistics and in-order sums over [`SortedWindow::sorted`] are
/// therefore bit-identical to sorting a fresh copy of the window.
/// Measurements must not be NaN (sensor series reject non-finite values).
#[derive(Debug, Clone)]
pub(super) struct SortedWindow {
    cap: usize,
    arrivals: VecDeque<f64>,
    sorted: Vec<f64>,
}

impl SortedWindow {
    /// An empty window holding at most `cap` values.
    pub(super) fn new(cap: usize) -> Self {
        SortedWindow {
            cap,
            arrivals: VecDeque::with_capacity(cap),
            sorted: Vec::with_capacity(cap),
        }
    }

    /// Appends `value`, evicting the oldest value once the window is full.
    pub(super) fn push(&mut self, value: f64) {
        if self.arrivals.len() == self.cap {
            if let Some(old) = self.arrivals.pop_front() {
                // The oldest value of an equal run is the run's first.
                let at = self.sorted.partition_point(|&x| x < old);
                self.sorted.remove(at);
            }
        }
        self.arrivals.push_back(value);
        // After its equal run: the newest of equals sorts last.
        let at = self.sorted.partition_point(|&x| x <= value);
        self.sorted.insert(at, value);
    }

    /// The window's values in ascending order, equal values oldest first.
    pub(super) fn sorted(&self) -> &[f64] {
        &self.sorted
    }
}
