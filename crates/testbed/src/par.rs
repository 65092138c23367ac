//! Deterministic parallel execution of embarrassingly-parallel sweep cells.
//!
//! The bench bins evaluate a grid of independent configurations
//! (file size × candidate count × seed × policy …). Each cell builds its own
//! simulator from its own seed, so cells can run on worker threads in any
//! order — as long as the *results* come back in input order, the output is
//! byte-identical to a serial sweep. [`par_map`] guarantees exactly that:
//!
//! * every cell's closure receives only its own input (no shared mutable
//!   state),
//! * results are written into a slot indexed by the cell's position, so
//!   completion order cannot leak into the output,
//! * the worker count changes scheduling only, never results.
//!
//! Workers default to the machine's parallelism and can be pinned with the
//! `DATAGRID_JOBS` environment variable (`DATAGRID_JOBS=1` forces the exact
//! serial path, useful for differential tests).

#![cfg_attr(
    not(test),
    expect(
        clippy::expect_used,
        reason = "worker-pool mutexes cannot poison (workers do not panic while holding them); every slot is filled before join"
    )
)]

use std::sync::Mutex;

/// The worker count used by [`par_map`]: `DATAGRID_JOBS` if set to a
/// positive integer, otherwise [`std::thread::available_parallelism`]
/// (falling back to 1 when unknown).
pub fn worker_count() -> usize {
    if let Ok(v) = std::env::var("DATAGRID_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to [`worker_count`] threads, returning the
/// results **in input order** regardless of scheduling.
///
/// `f` must be a pure function of its input for the parallel output to be
/// byte-identical to the serial output (each bench cell seeds its own
/// simulator, so this holds by construction). Panics in `f` propagate to
/// the caller.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = worker_count().min(items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    // Feed (index, item) pairs through a shared queue; each result lands in
    // its input slot.
    let queue: Mutex<std::vec::IntoIter<(usize, T)>> = Mutex::new(
        items
            .into_iter()
            .enumerate()
            .collect::<Vec<_>>()
            .into_iter(),
    );
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots_mutex = Mutex::new(&mut slots);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let next = queue.lock().expect("queue poisoned").next();
                let Some((idx, item)) = next else { break };
                let result = f(item);
                slots_mutex.lock().expect("slots poisoned")[idx] = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = par_map(inputs.clone(), |x| x * x);
        let want: Vec<u64> = inputs.iter().map(|x| x * x).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn matches_serial_execution_exactly() {
        // A mildly expensive, purely-input-determined cell function; the
        // parallel result must be byte-identical to the serial one.
        let cell = |seed: u64| -> Vec<u64> {
            let mut rng = datagrid_simnet::rng::SimRng::seed_from_u64(seed);
            (0..50).map(|_| rng.below(1_000_000)).collect()
        };
        let seeds: Vec<u64> = (0..32).collect();
        let serial: Vec<Vec<u64>> = seeds.iter().map(|&s| cell(s)).collect();
        let parallel = par_map(seeds, cell);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(empty, |x: u32| x).is_empty());
        assert_eq!(par_map(vec![7], |x| x + 1), vec![8]);
    }
}
