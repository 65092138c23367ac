//! Lightweight hierarchical phase profiler for the replay hot path.
//!
//! [`PhaseProfiler`] aggregates guard-based spans (`settle`, `decide`,
//! `dispatch`, `retry/failover`, with nested phases like `settle/solve`)
//! into a per-phase tree. Two kinds of data are kept strictly apart:
//!
//! - **deterministic counts** — calls and "items" (flows touched, jobs
//!   dispatched), pure functions of the seed, always collected;
//! - **wall-clock timings** — total/self nanoseconds per phase, collected
//!   only when the `prof-timing` cargo feature is on. Default builds
//!   contain no clock reads at all, keeping the simulation crates honest
//!   about sim-time-only behaviour (`clippy.toml` disallows
//!   `Instant::now`; the one gated clock read below is an audited
//!   `#[expect]`).
//!
//! Interior mutability (a `RefCell`) keeps the spanning API `&self`, so a
//! driver can open a span on one field of a struct while mutating its
//! siblings. The profiler is `Send` (it is owned, not shared) and clones
//! deeply, matching the by-value `Recorder` it travels next to.

use crate::event::{json_f64, json_string};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether this build collects wall-clock timings (`prof-timing`).
pub const TIMING_ENABLED: bool = cfg!(feature = "prof-timing");

#[cfg(feature = "prof-timing")]
mod clock {
    //! The only wall-clock reads in the workspace's simulation crates,
    //! compiled solely under `prof-timing`.

    pub(super) type Stamp = std::time::Instant;

    #[expect(
        clippy::disallowed_methods,
        reason = "the profiler's clock compiles only under prof-timing; default simulation builds are clock-free"
    )]
    pub(super) fn now() -> Stamp {
        std::time::Instant::now()
    }

    pub(super) fn elapsed_ns(start: Stamp) -> u64 {
        u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One phase node in the aggregation tree.
#[derive(Debug, Clone, Default)]
struct Node {
    /// Child phase name → node index, sorted for deterministic walks.
    children: BTreeMap<&'static str, usize>,
    /// Times this phase was entered (or externally recorded).
    calls: u64,
    /// Phase-defined work units (flows touched, jobs dispatched, ...).
    items: u64,
    /// Wall-clock nanoseconds inside this phase (zero without timing).
    total_ns: u64,
    /// Portion of `total_ns` spent inside child spans.
    child_ns: u64,
}

#[derive(Debug, Clone, Default)]
struct Inner {
    nodes: Vec<Node>,
    /// Top-level phase name → node index.
    roots: BTreeMap<&'static str, usize>,
    /// Currently-open span nodes, outermost first.
    stack: Vec<usize>,
}

impl Inner {
    /// Find or create `name` under `parent` (or at the root).
    fn child_of(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        let existing = match parent {
            Some(p) => self.nodes[p].children.get(name).copied(),
            None => self.roots.get(name).copied(),
        };
        if let Some(id) = existing {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(Node::default());
        match parent {
            Some(p) => {
                self.nodes[p].children.insert(name, id);
            }
            None => {
                self.roots.insert(name, id);
            }
        }
        id
    }
}

/// Aggregating hierarchical phase profiler.
///
/// ```
/// use datagrid_obs::prof::PhaseProfiler;
///
/// let prof = PhaseProfiler::new();
/// {
///     let _settle = prof.span("settle");
///     let _solve = prof.span("solve");
///     prof.add_items(12); // flows touched by this solve
/// }
/// let snap = prof.snapshot();
/// assert_eq!(snap.phases[0].path, "settle");
/// assert_eq!(snap.phases[1].path, "settle/solve");
/// assert_eq!(snap.phases[1].items, 12);
/// ```
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    inner: RefCell<Inner>,
}

impl Clone for PhaseProfiler {
    fn clone(&self) -> Self {
        PhaseProfiler {
            inner: RefCell::new(self.inner.borrow().clone()),
        }
    }
}

impl PhaseProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        PhaseProfiler::default()
    }

    /// Open a span for `name` nested under the innermost open span. The
    /// returned guard closes the span (and, under `prof-timing`, charges
    /// its elapsed wall-clock time) when dropped. Guards must drop in
    /// LIFO order — scope them lexically.
    pub fn span(&self, name: &'static str) -> PhaseGuard<'_> {
        {
            let mut inner = self.inner.borrow_mut();
            let parent = inner.stack.last().copied();
            let id = inner.child_of(parent, name);
            inner.nodes[id].calls += 1;
            inner.stack.push(id);
        }
        PhaseGuard {
            prof: self,
            #[cfg(feature = "prof-timing")]
            started: clock::now(),
        }
    }

    /// Credit `n` work items to the innermost open span (no-op when no
    /// span is open).
    pub fn add_items(&self, n: u64) {
        let mut inner = self.inner.borrow_mut();
        if let Some(&id) = inner.stack.last() {
            inner.nodes[id].items += n;
        }
    }

    /// Fold externally-counted work into the phase at `path` without
    /// opening a span — used to attribute engine-kept counters (e.g.
    /// solver passes) under the phase that triggered them.
    pub fn record_external(&self, path: &[&'static str], calls: u64, items: u64) {
        if path.is_empty() {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let mut parent = None;
        for name in path {
            parent = Some(inner.child_of(parent, name));
        }
        if let Some(id) = parent {
            inner.nodes[id].calls += calls;
            inner.nodes[id].items += items;
        }
    }

    fn exit(&self, elapsed_ns: u64) {
        let mut inner = self.inner.borrow_mut();
        let Some(id) = inner.stack.pop() else {
            return;
        };
        if elapsed_ns > 0 {
            inner.nodes[id].total_ns += elapsed_ns;
            if let Some(&parent) = inner.stack.last() {
                inner.nodes[parent].child_ns += elapsed_ns;
            }
        }
    }

    /// Discard all recorded phases (open spans keep working: their nodes
    /// are re-created on the next entry, their exits ignored).
    pub fn reset(&self) {
        *self.inner.borrow_mut() = Inner::default();
    }

    /// True when no phase has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().roots.is_empty()
    }

    /// A flattened depth-first snapshot of the phase tree, children in
    /// name order — deterministic for identical call patterns.
    pub fn snapshot(&self) -> ProfSnapshot {
        fn walk(
            inner: &Inner,
            id: usize,
            name: &'static str,
            prefix: &str,
            depth: usize,
            out: &mut Vec<PhaseStat>,
        ) {
            let node = &inner.nodes[id];
            let path = if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}/{name}")
            };
            out.push(PhaseStat {
                name,
                path: path.clone(),
                depth,
                calls: node.calls,
                items: node.items,
                total_ns: node.total_ns,
                self_ns: node.total_ns.saturating_sub(node.child_ns),
            });
            for (&child_name, &child_id) in &node.children {
                walk(inner, child_id, child_name, &path, depth + 1, out);
            }
        }
        let inner = self.inner.borrow();
        let mut phases = Vec::new();
        for (&name, &id) in &inner.roots {
            walk(&inner, id, name, "", 0, &mut phases);
        }
        ProfSnapshot { phases }
    }
}

/// Open-span guard returned by [`PhaseProfiler::span`]; closes the span
/// on drop.
#[must_use = "a span guard closes its phase when dropped"]
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    prof: &'a PhaseProfiler,
    #[cfg(feature = "prof-timing")]
    started: clock::Stamp,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        #[cfg(feature = "prof-timing")]
        let elapsed = clock::elapsed_ns(self.started);
        #[cfg(not(feature = "prof-timing"))]
        let elapsed = 0u64;
        self.prof.exit(elapsed);
    }
}

/// One phase's aggregated stats inside a [`ProfSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Leaf phase name (`solve`).
    pub name: &'static str,
    /// Slash-joined path from the root (`settle/solve`).
    pub path: String,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Times the phase was entered or externally recorded.
    pub calls: u64,
    /// Work units credited to the phase.
    pub items: u64,
    /// Wall-clock nanoseconds (zero unless built with `prof-timing`).
    pub total_ns: u64,
    /// `total_ns` minus time spent in child phases.
    pub self_ns: u64,
}

/// A depth-first flattened phase tree; see [`PhaseProfiler::snapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfSnapshot {
    /// Phases in depth-first, name-sorted order.
    pub phases: Vec<PhaseStat>,
}

impl ProfSnapshot {
    /// Deterministic text table. Timing columns appear only in
    /// `prof-timing` builds, keeping default output seed-pure.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if TIMING_ENABLED {
            let _ = writeln!(
                out,
                "{:<32} {:>12} {:>12} {:>12} {:>12} {:>6}",
                "phase", "calls", "items", "total_ms", "self_ms", "self%",
            );
        } else {
            let _ = writeln!(out, "{:<32} {:>12} {:>12}", "phase", "calls", "items");
        }
        for p in &self.phases {
            let label = format!("{}{}", "  ".repeat(p.depth), p.name);
            if TIMING_ENABLED {
                let total_ms = p.total_ns as f64 / 1e6;
                let self_ms = p.self_ns as f64 / 1e6;
                let pct = if p.total_ns > 0 {
                    100.0 * p.self_ns as f64 / p.total_ns as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "{label:<32} {:>12} {:>12} {total_ms:>12.3} {self_ms:>12.3} {pct:>5.1}%",
                    p.calls, p.items,
                );
            } else {
                let _ = writeln!(out, "{label:<32} {:>12} {:>12}", p.calls, p.items);
            }
        }
        out
    }

    /// Deterministic JSON export. The `timing` flag tells consumers
    /// whether `total_ns`/`self_ns` fields are present at all — they are
    /// omitted (not zeroed) in default builds so deterministic-field
    /// comparisons cover the whole document.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"timing\":");
        out.push_str(if TIMING_ENABLED { "true" } else { "false" });
        out.push_str(",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"path\":{},\"depth\":{},\"calls\":{},\"items\":{}",
                json_string(&p.path),
                p.depth,
                p.calls,
                p.items,
            );
            if TIMING_ENABLED {
                let _ = write!(
                    out,
                    ",\"total_ns\":{},\"self_ns\":{},\"total_ms\":{}",
                    p.total_ns,
                    p.self_ns,
                    json_f64(p.total_ns as f64 / 1e6),
                );
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate_by_path() {
        let prof = PhaseProfiler::new();
        for _ in 0..3 {
            let _settle = prof.span("settle");
            {
                let _solve = prof.span("solve");
                prof.add_items(5);
            }
        }
        {
            let _decide = prof.span("decide");
            prof.add_items(1);
        }
        let snap = prof.snapshot();
        let paths: Vec<&str> = snap.phases.iter().map(|p| p.path.as_str()).collect();
        assert_eq!(paths, vec!["decide", "settle", "settle/solve"]);
        assert_eq!(snap.phases[1].calls, 3);
        assert_eq!(snap.phases[2].calls, 3);
        assert_eq!(snap.phases[2].items, 15);
        assert_eq!(snap.phases[2].depth, 1);
    }

    #[test]
    fn same_name_under_different_parents_stays_distinct() {
        let prof = PhaseProfiler::new();
        {
            let _a = prof.span("settle");
            let _s = prof.span("solve");
        }
        {
            let _b = prof.span("fault");
            let _s = prof.span("solve");
        }
        let snap = prof.snapshot();
        let paths: Vec<&str> = snap.phases.iter().map(|p| p.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["fault", "fault/solve", "settle", "settle/solve"]
        );
    }

    #[test]
    fn record_external_creates_and_accumulates_paths() {
        let prof = PhaseProfiler::new();
        prof.record_external(&["settle", "solve"], 10, 250);
        prof.record_external(&["settle", "solve"], 5, 50);
        prof.record_external(&[], 99, 99); // ignored
        let snap = prof.snapshot();
        assert_eq!(snap.phases.len(), 2);
        assert_eq!(snap.phases[1].path, "settle/solve");
        assert_eq!(snap.phases[1].calls, 15);
        assert_eq!(snap.phases[1].items, 300);
        assert_eq!(snap.phases[0].calls, 0, "parent not entered");
    }

    #[test]
    fn deterministic_counts_render_identically_across_runs() {
        let build = || {
            let prof = PhaseProfiler::new();
            {
                let _d = prof.span("decide");
                prof.add_items(2);
            }
            prof.record_external(&["settle", "solve"], 7, 70);
            prof.snapshot()
        };
        let a = build();
        let b = build();
        assert_eq!(a.phases.len(), b.phases.len());
        for (pa, pb) in a.phases.iter().zip(&b.phases) {
            assert_eq!(
                (pa.path.as_str(), pa.calls, pa.items),
                (pb.path.as_str(), pb.calls, pb.items)
            );
        }
        if !TIMING_ENABLED {
            // Without the feature the whole document is deterministic.
            assert_eq!(a.render_json(), b.render_json());
            assert_eq!(a.render_text(), b.render_text());
            assert!(a.render_json().starts_with("{\"timing\":false"));
            assert!(!a.render_json().contains("total_ns"));
        } else {
            assert!(a.render_json().starts_with("{\"timing\":true"));
            assert!(a.render_json().contains("total_ns"));
        }
    }

    #[test]
    fn clone_is_independent_and_reset_clears() {
        let prof = PhaseProfiler::new();
        {
            let _g = prof.span("settle");
        }
        let copy = prof.clone();
        {
            let _g = prof.span("settle");
        }
        assert_eq!(copy.snapshot().phases[0].calls, 1);
        assert_eq!(prof.snapshot().phases[0].calls, 2);
        prof.reset();
        assert!(prof.is_empty());
        assert!(prof.snapshot().phases.is_empty());
    }

    #[cfg(feature = "prof-timing")]
    #[test]
    fn timing_builds_charge_elapsed_time_to_phases() {
        let prof = PhaseProfiler::new();
        {
            let _outer = prof.span("settle");
            let _inner = prof.span("solve");
            // Burn a little real time so elapsed_ns > 0 on any clock.
            let mut acc = 0u64;
            for i in 0..50_000u64 {
                acc = acc.wrapping_add(i);
            }
            assert!(acc > 0);
        }
        let snap = prof.snapshot();
        let outer = &snap.phases[0];
        let inner = &snap.phases[1];
        assert!(inner.total_ns > 0, "inner span saw time pass");
        assert!(outer.total_ns >= inner.total_ns, "parent covers child");
        assert!(outer.self_ns <= outer.total_ns);
    }
}
