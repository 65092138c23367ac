//! Score history — the data behind the paper's Fig. 5 cost program.
//!
//! The paper's Java GUI polls the information service, plots each remote
//! site's cost over time, averages over a user-selectable *time scale*,
//! and sorts sites by cost on demand. [`CostHistory`] is that program's
//! data model; the `fig5` bench binary renders it as text.

#![cfg_attr(
    not(test),
    expect(
        clippy::expect_used,
        reason = "cost-history entries are finite by construction"
    )
)]

use std::collections::BTreeMap;

use datagrid_simnet::time::{SimDuration, SimTime};
use datagrid_sysmon::nws::series::TimeSeries;

/// Per-site score time series with window averaging and sorting.
///
/// ```
/// use datagrid_core::history::CostHistory;
/// use datagrid_simnet::time::{SimDuration, SimTime};
///
/// let mut h = CostHistory::new();
/// h.record("hit0", SimTime::from_secs_f64(10.0), 0.8);
/// h.record("lz02", SimTime::from_secs_f64(10.0), 0.3);
/// let sorted = h.sorted(SimTime::from_secs_f64(10.0), SimDuration::from_secs(60));
/// assert_eq!(sorted[0].0, "hit0");
/// ```
#[derive(Debug, Clone, Default)]
pub struct CostHistory {
    series: BTreeMap<String, TimeSeries>,
}

impl CostHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        CostHistory::default()
    }

    /// Records one score sample for a site.
    pub fn record(&mut self, site: &str, time: SimTime, score: f64) {
        self.series
            .entry(site.to_string())
            .or_default()
            .push(time, score);
    }

    /// The sites with recorded history, in name order.
    pub fn sites(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// The raw series for one site.
    pub fn series(&self, site: &str) -> Option<&TimeSeries> {
        self.series.get(site)
    }

    /// The average score of a site over `[now - window, now]` — the GUI's
    /// adjustable time scale.
    pub fn average(&self, site: &str, now: SimTime, window: SimDuration) -> Option<f64> {
        self.series.get(site)?.mean_over(now, window)
    }

    /// All sites with a score in the window, sorted best (highest average
    /// score) first — the GUI's *Cost* button.
    pub fn sorted(&self, now: SimTime, window: SimDuration) -> Vec<(String, f64)> {
        let mut rows: Vec<(String, f64)> = self
            .series
            .iter()
            .filter_map(|(site, s)| s.mean_over(now, window).map(|m| (site.clone(), m)))
            .collect();
        rows.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("scores are finite")
                .then_with(|| a.0.cmp(&b.0))
        });
        rows
    }

    /// Number of sites tracked.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn w(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn record_and_average() {
        let mut h = CostHistory::new();
        for i in 0..10 {
            h.record("hit0", t(i as f64 * 10.0), 0.5 + 0.01 * i as f64);
        }
        // Window covering the last 3 samples (70, 80, 90).
        let avg = h.average("hit0", t(90.0), w(25)).unwrap();
        assert!((avg - 0.58).abs() < 1e-12);
        assert_eq!(h.average("ghost", t(90.0), w(25)), None);
    }

    #[test]
    fn window_changes_the_average() {
        let mut h = CostHistory::new();
        h.record("a", t(0.0), 0.2);
        h.record("a", t(100.0), 0.8);
        let short = h.average("a", t(100.0), w(10)).unwrap();
        let long = h.average("a", t(100.0), w(1000)).unwrap();
        assert_eq!(short, 0.8);
        assert_eq!(long, 0.5);
    }

    #[test]
    fn sorted_orders_descending_with_name_ties() {
        let mut h = CostHistory::new();
        h.record("lz02", t(1.0), 0.3);
        h.record("alpha4", t(1.0), 0.9);
        h.record("hit0", t(1.0), 0.9);
        let sorted = h.sorted(t(1.0), w(60));
        let names: Vec<&str> = sorted.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha4", "hit0", "lz02"]);
    }

    #[test]
    fn sites_enumerated_in_order() {
        let mut h = CostHistory::new();
        assert!(h.is_empty());
        h.record("z", t(0.0), 0.1);
        h.record("a", t(0.0), 0.1);
        assert_eq!(h.sites().collect::<Vec<_>>(), vec!["a", "z"]);
        assert_eq!(h.len(), 2);
        assert!(h.series("a").is_some());
    }
}
