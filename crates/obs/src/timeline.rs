//! Sim-time windowed health timelines.
//!
//! A [`TimelineRecorder`] folds the continuous life of a grid run into
//! fixed-width simulation-time windows: per-link utilization (average and
//! peak), active-flow counts, fetch-latency percentiles (derived from the
//! same fixed histogram buckets the metrics registry uses), selection
//! decisions per second, failovers, retries, faults and job completions.
//! This is the "watching the grid" half of the paper's argument — the
//! NWS-style sampled history that replica selection reasons over — turned
//! into a first-class export.
//!
//! Determinism contract: windows are keyed by `floor(t / window)` on the
//! simulated clock, samples arrive in nondecreasing sim-time order, and
//! every export iterates windows and links in index order with plain
//! decimal formatting. Two identically-seeded runs render byte-identical
//! timelines; that property is covered by `tests/timeline_determinism.rs`.

use crate::event::{json_f64, json_string};
use crate::metrics::{Histogram, LATENCY_BOUNDS_SECS};
use datagrid_simnet::time::{SimDuration, SimTime};
use std::fmt::Write as _;

/// Peak utilization at or above this fraction counts a window as
/// "saturated" for the link in the health report.
pub const SATURATION_THRESHOLD: f64 = 0.999;

/// Default number of hottest links surfaced per window and per run.
pub const DEFAULT_TOP_K: usize = 3;

/// One fixed sim-time window of aggregated samples.
#[derive(Debug, Clone)]
struct WindowAgg {
    /// Window ordinal: `floor(t / window)`.
    index: u64,
    /// Network samples folded into this window.
    samples: u64,
    /// Per-link utilization sums (divide by `samples` for the average).
    util_sum: Vec<f64>,
    /// Per-link utilization peaks.
    util_peak: Vec<f64>,
    /// Sum of active-flow counts across samples.
    flows_sum: u64,
    /// Peak active-flow count.
    flows_peak: u64,
    decisions: u64,
    failovers: u64,
    retries: u64,
    faults: u64,
    completions: u64,
    failures: u64,
    /// Max-min solver invocations attributed to this window.
    solves: u64,
    /// Flows touched by those solves.
    solver_flows: u64,
    /// Fetch latencies completed in this window.
    latency: Histogram,
}

impl WindowAgg {
    fn new(index: u64, links: usize) -> Self {
        WindowAgg {
            index,
            samples: 0,
            util_sum: vec![0.0; links],
            util_peak: vec![0.0; links],
            flows_sum: 0,
            flows_peak: 0,
            decisions: 0,
            failovers: 0,
            retries: 0,
            faults: 0,
            completions: 0,
            failures: 0,
            solves: 0,
            solver_flows: 0,
            latency: Histogram::new(LATENCY_BOUNDS_SECS),
        }
    }
}

/// A link's heat over a window or a whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkHeat {
    /// Link index in the topology.
    pub link: usize,
    /// Human-readable link label (`src->dst`).
    pub name: String,
    /// Mean utilization over the covered samples.
    pub avg_util: f64,
    /// Peak utilization over the covered samples.
    pub peak_util: f64,
    /// Windows in which this link peaked at or above
    /// [`SATURATION_THRESHOLD`] (zero for per-window heat).
    pub saturated_windows: u64,
}

/// Computed per-window view handed to exporters and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// Window ordinal: `floor(t / window)`.
    pub index: u64,
    /// Window start, in simulated seconds.
    pub start_s: f64,
    /// Window end (exclusive), in simulated seconds.
    pub end_s: f64,
    /// Network samples folded into the window.
    pub samples: u64,
    /// Mean active-flow count across samples.
    pub flows_avg: f64,
    /// Peak active-flow count.
    pub flows_peak: u64,
    /// Selection decisions made in the window.
    pub decisions: u64,
    /// Decisions divided by the window width.
    pub decisions_per_sec: f64,
    /// Failovers (replica abandoned, re-ranked) in the window.
    pub failovers: u64,
    /// Transfer retries scheduled in the window.
    pub retries: u64,
    /// Fault transitions (link state changes) in the window.
    pub faults: u64,
    /// Jobs completed successfully in the window.
    pub completions: u64,
    /// Jobs abandoned in the window.
    pub failures: u64,
    /// Fetch latencies observed in the window.
    pub latency_count: u64,
    /// Median fetch latency, seconds (None when no fetches completed).
    pub p50_s: Option<f64>,
    /// 95th-percentile fetch latency, seconds.
    pub p95_s: Option<f64>,
    /// 99th-percentile fetch latency, seconds.
    pub p99_s: Option<f64>,
    /// Solver invocations attributed to the window.
    pub solves: u64,
    /// Flows touched by those solves.
    pub solver_flows: u64,
    /// Hottest links this window, peak-utilization order.
    pub top_links: Vec<LinkHeat>,
}

/// Whole-run totals across every window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimelineTotals {
    /// Network samples recorded.
    pub samples: u64,
    /// Selection decisions recorded.
    pub decisions: u64,
    /// Failovers recorded.
    pub failovers: u64,
    /// Retries recorded.
    pub retries: u64,
    /// Fault transitions recorded.
    pub faults: u64,
    /// Successful completions recorded.
    pub completions: u64,
    /// Abandoned jobs recorded.
    pub failures: u64,
    /// Solver invocations recorded.
    pub solves: u64,
    /// Flows touched by those solves.
    pub solver_flows: u64,
}

/// Deterministic sim-time windowed time-series over a grid run.
///
/// Construct with the window width and the topology's link labels, then
/// feed it samples and counter events as the simulation advances. All
/// inputs must arrive in nondecreasing sim-time order (the discrete-event
/// loop guarantees this); a sample timed before the newest window is
/// clamped into that window rather than reopening history.
#[derive(Debug, Clone)]
pub struct TimelineRecorder {
    window: SimDuration,
    links: Vec<String>,
    top_k: usize,
    windows: Vec<WindowAgg>,
    last_solves: u64,
    last_solver_flows: u64,
}

impl TimelineRecorder {
    /// A recorder with `window`-wide buckets over the given links.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration, links: Vec<String>) -> Self {
        assert!(!window.is_zero(), "timeline window must be non-zero");
        TimelineRecorder {
            window,
            links,
            top_k: DEFAULT_TOP_K,
            windows: Vec::new(),
            last_solves: 0,
            last_solver_flows: 0,
        }
    }

    /// Window width in simulated seconds.
    pub fn window_secs(&self) -> f64 {
        self.window.as_secs_f64()
    }

    /// Number of windows opened so far.
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    fn window_at(&mut self, time: SimTime) -> &mut WindowAgg {
        let idx = time.as_nanos() / self.window.as_nanos();
        if self.windows.last().is_none_or(|w| w.index < idx) {
            let links = self.links.len();
            self.windows.push(WindowAgg::new(idx, links));
        }
        let last = self.windows.len() - 1;
        &mut self.windows[last]
    }

    /// Fold one network sample (per-link utilizations in link-index order
    /// plus the active-flow count) into the window covering `time`.
    pub fn sample_network(&mut self, time: SimTime, utils: &[f64], active_flows: usize) {
        let w = self.window_at(time);
        w.samples += 1;
        for (i, &u) in utils.iter().enumerate() {
            if i >= w.util_sum.len() {
                break;
            }
            w.util_sum[i] += u;
            if u > w.util_peak[i] {
                w.util_peak[i] = u;
            }
        }
        w.flows_sum += active_flows as u64;
        w.flows_peak = w.flows_peak.max(active_flows as u64);
    }

    /// Attribute solver work to the window covering `time`, given the
    /// engine's *cumulative* solve / flows-touched totals. The recorder
    /// differences successive totals itself.
    pub fn record_engine_totals(&mut self, time: SimTime, solves: u64, solver_flows: u64) {
        let d_solves = solves.saturating_sub(self.last_solves);
        let d_flows = solver_flows.saturating_sub(self.last_solver_flows);
        self.last_solves = solves;
        self.last_solver_flows = solver_flows;
        if d_solves == 0 && d_flows == 0 {
            return;
        }
        let w = self.window_at(time);
        w.solves += d_solves;
        w.solver_flows += d_flows;
    }

    /// Reset the engine-counter baseline without recording — call when the
    /// recorder attaches to a grid that has already been running.
    pub fn rebase_engine_totals(&mut self, solves: u64, solver_flows: u64) {
        self.last_solves = solves;
        self.last_solver_flows = solver_flows;
    }

    /// Record one completed fetch's end-to-end latency.
    pub fn observe_latency(&mut self, time: SimTime, secs: f64) {
        self.window_at(time).latency.observe(secs);
    }

    /// Record one replica-selection decision.
    pub fn record_decision(&mut self, time: SimTime) {
        self.window_at(time).decisions += 1;
    }

    /// Record one failover (replica abandoned and candidates re-ranked).
    pub fn record_failover(&mut self, time: SimTime) {
        self.window_at(time).failovers += 1;
    }

    /// Record one scheduled transfer retry.
    pub fn record_retry(&mut self, time: SimTime) {
        self.window_at(time).retries += 1;
    }

    /// Record one link fault transition (either direction).
    pub fn record_fault(&mut self, time: SimTime) {
        self.window_at(time).faults += 1;
    }

    /// Record one finished job; `ok` is false for abandoned jobs.
    pub fn record_completion(&mut self, time: SimTime, ok: bool) {
        let w = self.window_at(time);
        if ok {
            w.completions += 1;
        } else {
            w.failures += 1;
        }
    }

    fn heat(&self, w: &WindowAgg, link: usize) -> LinkHeat {
        LinkHeat {
            link,
            name: self.links.get(link).cloned().unwrap_or_default(),
            avg_util: if w.samples > 0 {
                w.util_sum[link] / w.samples as f64
            } else {
                0.0
            },
            peak_util: w.util_peak[link],
            saturated_windows: 0,
        }
    }

    fn top_links(&self, w: &WindowAgg) -> Vec<LinkHeat> {
        if w.samples == 0 {
            return Vec::new();
        }
        let mut order: Vec<usize> = (0..self.links.len()).collect();
        order.sort_by(|&a, &b| {
            w.util_peak[b]
                .partial_cmp(&w.util_peak[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    w.util_sum[b]
                        .partial_cmp(&w.util_sum[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| a.cmp(&b))
        });
        order
            .into_iter()
            .take(self.top_k)
            .map(|i| self.heat(w, i))
            .collect()
    }

    fn summarize(&self, w: &WindowAgg) -> WindowSummary {
        let width_s = self.window.as_secs_f64();
        WindowSummary {
            index: w.index,
            start_s: w.index as f64 * width_s,
            end_s: (w.index + 1) as f64 * width_s,
            samples: w.samples,
            flows_avg: if w.samples > 0 {
                w.flows_sum as f64 / w.samples as f64
            } else {
                0.0
            },
            flows_peak: w.flows_peak,
            decisions: w.decisions,
            decisions_per_sec: w.decisions as f64 / width_s,
            failovers: w.failovers,
            retries: w.retries,
            faults: w.faults,
            completions: w.completions,
            failures: w.failures,
            latency_count: w.latency.count(),
            p50_s: w.latency.quantile(0.50),
            p95_s: w.latency.quantile(0.95),
            p99_s: w.latency.quantile(0.99),
            solves: w.solves,
            solver_flows: w.solver_flows,
            top_links: self.top_links(w),
        }
    }

    /// Per-window summaries in time order.
    pub fn summaries(&self) -> Vec<WindowSummary> {
        self.windows.iter().map(|w| self.summarize(w)).collect()
    }

    /// Whole-run totals.
    pub fn totals(&self) -> TimelineTotals {
        let mut t = TimelineTotals::default();
        for w in &self.windows {
            t.samples += w.samples;
            t.decisions += w.decisions;
            t.failovers += w.failovers;
            t.retries += w.retries;
            t.faults += w.faults;
            t.completions += w.completions;
            t.failures += w.failures;
            t.solves += w.solves;
            t.solver_flows += w.solver_flows;
        }
        t
    }

    /// The run's `k` hottest links: highest peak utilization, ties broken
    /// by average then link index. Saturated-window counts come along.
    pub fn hottest_links(&self, k: usize) -> Vec<LinkHeat> {
        let mut sum = vec![0.0f64; self.links.len()];
        let mut peak = vec![0.0f64; self.links.len()];
        let mut sat = vec![0u64; self.links.len()];
        let mut samples = 0u64;
        for w in &self.windows {
            samples += w.samples;
            for i in 0..self.links.len() {
                sum[i] += w.util_sum[i];
                if w.util_peak[i] > peak[i] {
                    peak[i] = w.util_peak[i];
                }
                if w.samples > 0 && w.util_peak[i] >= SATURATION_THRESHOLD {
                    sat[i] += 1;
                }
            }
        }
        if samples == 0 {
            return Vec::new();
        }
        let mut order: Vec<usize> = (0..self.links.len()).collect();
        order.sort_by(|&a, &b| {
            peak[b]
                .partial_cmp(&peak[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    sum[b]
                        .partial_cmp(&sum[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| a.cmp(&b))
        });
        order
            .into_iter()
            .take(k)
            .map(|i| LinkHeat {
                link: i,
                name: self.links.get(i).cloned().unwrap_or_default(),
                avg_util: sum[i] / samples as f64,
                peak_util: peak[i],
                saturated_windows: sat[i],
            })
            .collect()
    }

    /// Deterministic JSON export: window width, link labels, per-window
    /// stats with top-k hottest links, and the run-level hottest links.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"window_secs\":");
        out.push_str(&json_f64(self.window.as_secs_f64()));
        out.push_str(",\"links\":[");
        for (i, name) in self.links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(name));
        }
        out.push_str("],\"windows\":[");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = self.summarize(w);
            let opt = |v: Option<f64>| v.map_or_else(|| "null".to_string(), json_f64);
            let _ = write!(
                out,
                "{{\"index\":{},\"start_s\":{},\"end_s\":{},\"samples\":{},\
                 \"flows_avg\":{},\"flows_peak\":{},\"decisions\":{},\
                 \"decisions_per_sec\":{},\"failovers\":{},\"retries\":{},\
                 \"faults\":{},\"completions\":{},\"failures\":{},\
                 \"latency_count\":{},\"p50_s\":{},\"p95_s\":{},\"p99_s\":{},\
                 \"solves\":{},\"solver_flows\":{},\"top_links\":[",
                s.index,
                json_f64(s.start_s),
                json_f64(s.end_s),
                s.samples,
                json_f64(s.flows_avg),
                s.flows_peak,
                s.decisions,
                json_f64(s.decisions_per_sec),
                s.failovers,
                s.retries,
                s.faults,
                s.completions,
                s.failures,
                s.latency_count,
                opt(s.p50_s),
                opt(s.p95_s),
                opt(s.p99_s),
                s.solves,
                s.solver_flows,
            );
            for (j, l) in s.top_links.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"link\":{},\"name\":{},\"avg_util\":{},\"peak_util\":{}}}",
                    l.link,
                    json_string(&l.name),
                    json_f64(l.avg_util),
                    json_f64(l.peak_util),
                );
            }
            out.push_str("]}");
        }
        out.push_str("],\"hottest_links\":[");
        for (i, l) in self.hottest_links(self.top_k).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"link\":{},\"name\":{},\"avg_util\":{},\"peak_util\":{},\
                 \"saturated_windows\":{}}}",
                l.link,
                json_string(&l.name),
                json_f64(l.avg_util),
                json_f64(l.peak_util),
                l.saturated_windows,
            );
        }
        out.push_str("]}");
        out
    }

    /// Deterministic compact text export, one window per line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "timeline window={}s links={} windows={}",
            self.window.as_secs_f64(),
            self.links.len(),
            self.windows.len(),
        );
        for w in &self.windows {
            let s = self.summarize(w);
            let _ = write!(
                out,
                "[{:.0},{:.0}) samples={} flows={:.1}/{} dec={} fail={} retry={} \
                 done={} lost={} solves={}",
                s.start_s,
                s.end_s,
                s.samples,
                s.flows_avg,
                s.flows_peak,
                s.decisions,
                s.failovers,
                s.retries,
                s.completions,
                s.failures,
                s.solves,
            );
            if let (Some(p50), Some(p95)) = (s.p50_s, s.p95_s) {
                let _ = write!(out, " p50={p50:.2}s p95={p95:.2}s");
            }
            if let Some(l) = s.top_links.first() {
                let _ = write!(out, " hot={}:{:.2}", l.name, l.peak_util);
            }
            out.push('\n');
        }
        out
    }

    /// The rendered "grid health report": a per-window table (flows,
    /// decisions/sec, latency percentiles, failovers, hottest link with
    /// its saturation) followed by the run's top-k hottest links.
    pub fn render_health_report(&self) -> String {
        let mut out = String::new();
        let t = self.totals();
        let _ = writeln!(
            out,
            "=== grid health report (window {}s, {} windows, {} links) ===",
            self.window.as_secs_f64(),
            self.windows.len(),
            self.links.len(),
        );
        let _ = writeln!(
            out,
            "jobs: {} completed, {} failed | {} decisions | {} failovers | \
             {} retries | {} faults | {} solver passes",
            t.completions, t.failures, t.decisions, t.failovers, t.retries, t.faults, t.solves,
        );
        if self.windows.is_empty() {
            out.push_str("(no windows recorded)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "{:>16}  {:>12} {:>7} {:>8} {:>8} {:>8} {:>7}  hottest link (peak)",
            "window", "flows avg/pk", "dec/s", "p50(s)", "p95(s)", "p99(s)", "failov",
        );
        for w in &self.windows {
            let s = self.summarize(w);
            let span = format!("[{:>6.0},{:>6.0})", s.start_s, s.end_s);
            let flows = format!("{:.1}/{}", s.flows_avg, s.flows_peak);
            let fmt_p = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |p| format!("{p:.2}"));
            let hot = s
                .top_links
                .first()
                .map_or_else(String::new, |l| format!("{} ({:.2})", l.name, l.peak_util));
            let _ = writeln!(
                out,
                "{span:>16}  {flows:>12} {:>7.2} {:>8} {:>8} {:>8} {:>7}  {hot}",
                s.decisions_per_sec,
                fmt_p(s.p50_s),
                fmt_p(s.p95_s),
                fmt_p(s.p99_s),
                s.failovers,
            );
        }
        let hottest = self.hottest_links(self.top_k);
        if !hottest.is_empty() {
            let _ = writeln!(out, "top {} hottest links over the run:", hottest.len());
            for (i, l) in hottest.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  {}. {:<24} avg {:.2}  peak {:.2}  saturated {}/{} windows",
                    i + 1,
                    l.name,
                    l.avg_util,
                    l.peak_util,
                    l.saturated_windows,
                    self.windows.len(),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_nanos(s * 1_000_000_000)
    }

    fn recorder() -> TimelineRecorder {
        TimelineRecorder::new(
            SimDuration::from_secs(10),
            vec!["a->b".to_string(), "b->c".to_string()],
        )
    }

    #[test]
    fn samples_land_in_their_windows() {
        let mut tl = recorder();
        tl.sample_network(secs(1), &[0.5, 0.2], 3);
        tl.sample_network(secs(4), &[0.7, 0.4], 5);
        tl.sample_network(secs(12), &[1.0, 0.1], 2);
        let s = tl.summaries();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].index, 0);
        assert_eq!(s[0].samples, 2);
        assert_eq!(s[0].flows_peak, 5);
        assert!((s[0].flows_avg - 4.0).abs() < 1e-12);
        assert_eq!(s[1].index, 1);
        assert_eq!(s[1].top_links[0].name, "a->b");
        assert!((s[1].top_links[0].peak_util - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counters_and_latency_aggregate_per_window() {
        let mut tl = recorder();
        tl.record_decision(secs(2));
        tl.record_decision(secs(3));
        tl.record_failover(secs(4));
        tl.record_retry(secs(4));
        tl.record_fault(secs(5));
        tl.observe_latency(secs(6), 1.5);
        tl.observe_latency(secs(7), 40.0);
        tl.record_completion(secs(7), true);
        tl.record_completion(secs(8), false);
        tl.record_decision(secs(15));
        let s = tl.summaries();
        assert_eq!(s[0].decisions, 2);
        assert!((s[0].decisions_per_sec - 0.2).abs() < 1e-12);
        assert_eq!(s[0].failovers, 1);
        assert_eq!(s[0].retries, 1);
        assert_eq!(s[0].faults, 1);
        assert_eq!(s[0].completions, 1);
        assert_eq!(s[0].failures, 1);
        assert_eq!(s[0].latency_count, 2);
        let p50 = s[0].p50_s.expect("two observations");
        assert!(p50 <= 2.0, "median in the low bucket, got {p50}");
        assert_eq!(s[1].decisions, 1);
        let t = tl.totals();
        assert_eq!(t.decisions, 3);
        assert_eq!(t.completions, 1);
    }

    #[test]
    fn engine_totals_are_differenced_and_rebased() {
        let mut tl = recorder();
        tl.rebase_engine_totals(100, 1000);
        tl.record_engine_totals(secs(1), 110, 1050);
        tl.record_engine_totals(secs(2), 110, 1050);
        tl.record_engine_totals(secs(12), 130, 1150);
        let s = tl.summaries();
        assert_eq!(s[0].solves, 10);
        assert_eq!(s[0].solver_flows, 50);
        assert_eq!(s[1].solves, 20);
        assert_eq!(s[1].solver_flows, 100);
    }

    #[test]
    fn hottest_links_rank_by_peak_with_saturation_counts() {
        let mut tl = recorder();
        tl.sample_network(secs(1), &[1.0, 0.6], 1);
        tl.sample_network(secs(11), &[1.0, 0.9], 1);
        tl.sample_network(secs(21), &[0.2, 0.95], 1);
        let hot = tl.hottest_links(2);
        assert_eq!(hot[0].link, 0);
        assert_eq!(hot[0].saturated_windows, 2);
        assert_eq!(hot[1].link, 1);
        assert_eq!(hot[1].saturated_windows, 0);
    }

    #[test]
    fn exports_are_deterministic_and_survive_emptiness() {
        let build = || {
            let mut tl = recorder();
            tl.sample_network(secs(3), &[0.4, 0.9], 7);
            tl.record_decision(secs(3));
            tl.observe_latency(secs(9), 12.0);
            tl
        };
        let a = build();
        let b = build();
        assert_eq!(a.render_json(), b.render_json());
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.render_health_report(), b.render_health_report());
        assert!(a.render_json().starts_with("{\"window_secs\":10"));
        assert!(a.render_health_report().contains("hottest link"));
        let empty = recorder();
        assert!(empty.is_empty());
        assert!(empty.render_json().contains("\"windows\":[]"));
        assert!(empty.render_health_report().contains("no windows recorded"));
    }

    #[test]
    fn out_of_order_samples_clamp_into_the_newest_window() {
        let mut tl = recorder();
        tl.sample_network(secs(25), &[0.1, 0.1], 1);
        tl.record_decision(secs(3));
        assert_eq!(tl.window_count(), 1);
        assert_eq!(tl.summaries()[0].decisions, 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_is_rejected() {
        TimelineRecorder::new(SimDuration::ZERO, Vec::new());
    }
}
