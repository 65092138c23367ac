//! Named counters, gauges and fixed-bucket histograms with deterministic
//! text / JSON exporters.

use crate::event::{json_f64, json_string};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default bucket upper bounds for transfer-latency histograms, in seconds.
///
/// Chosen to straddle the paper's measured range: LAN replicas finish in a
/// few seconds, the 30 Mbps Li-Zen uplink takes minutes for the large
/// files.
pub const LATENCY_BOUNDS_SECS: &[f64] =
    &[0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0];

/// A fixed-bucket histogram with cumulative-friendly `value <= bound`
/// bucketing (values exactly on a boundary land in that boundary's bucket).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `buckets[i]` counts observations in `(bounds[i-1], bounds[i]]`;
    /// the final slot counts everything above the last bound.
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over the given upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-finite, or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[slot] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The configured upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; one slot longer than [`Histogram::bounds`], the
    /// extra final slot being the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the bucket holding the target rank, clamped to the observed
    /// `[min, max]` range. Deterministic: a pure function of the bucket
    /// counts. Returns `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            let before = cumulative;
            cumulative += bucket;
            if bucket == 0 || cumulative < rank {
                continue;
            }
            let lower = if i == 0 { self.min } else { self.bounds[i - 1] };
            let upper = if i < self.bounds.len() {
                self.bounds[i]
            } else {
                self.max
            };
            let fraction = (rank - before) as f64 / bucket as f64;
            let estimate = lower + (upper - lower) * fraction;
            return Some(estimate.clamp(self.min, self.max));
        }
        // Unreachable: cumulative over all buckets equals `count >= rank`.
        Some(self.max)
    }
}

/// Registry of named metrics, exported in sorted-name order so two
/// identical runs render byte-identical dumps.
///
/// Every update looks the name up by `&str` first: only the first use of
/// a name allocates its key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    /// Sorted by name, so [`MetricsRegistry::register_histogram`] can hand
    /// out the slot one binary search found or made.
    histograms: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increment a counter by one (creating it at zero first).
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increment a counter by `delta` (creating it at zero first).
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(count) => *count += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Current counter value (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Overwrite a counter with an externally maintained total — used when
    /// merging counters kept by other subsystems (engine, catalog) into a
    /// snapshot.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        overwrite(&mut self.counters, name, value);
    }

    /// Set a gauge to an instantaneous value.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        overwrite(&mut self.gauges, name, value);
    }

    /// Current gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Create (or fetch) a histogram with explicit bounds.
    ///
    /// Bounds are fixed on first registration; re-registering with
    /// different bounds keeps the original.
    pub fn register_histogram(&mut self, name: &str, bounds: &[f64]) -> &mut Histogram {
        let at = match self.find_histogram(name) {
            Ok(at) => at,
            Err(at) => {
                self.histograms
                    .insert(at, (name.to_string(), Histogram::new(bounds)));
                at
            }
        };
        &mut self.histograms[at].1
    }

    /// Where histogram `name` is, or where it would be inserted.
    fn find_histogram(&self, name: &str) -> Result<usize, usize> {
        self.histograms
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
    }

    /// Record an observation, creating the histogram with
    /// [`LATENCY_BOUNDS_SECS`] if it does not exist yet.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.register_histogram(name, LATENCY_BOUNDS_SECS)
            .observe(value);
    }

    /// Fetch a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        let at = self.find_histogram(name).ok()?;
        Some(&self.histograms[at].1)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Deterministic plain-text export (one metric per line, names sorted).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("# counters\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name} {value}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("# gauges\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "{name} {value}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("# histograms\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{name} count {} sum {} min {} max {}",
                    h.count,
                    h.sum,
                    h.min().map_or_else(|| "-".to_string(), |v| v.to_string()),
                    h.max().map_or_else(|| "-".to_string(), |v| v.to_string()),
                );
                let mut cumulative = 0u64;
                for (bound, bucket) in h.bounds.iter().zip(&h.buckets) {
                    cumulative += bucket;
                    let _ = writeln!(out, "{name} le {bound} {cumulative}");
                }
                cumulative += h.buckets[h.bounds.len()];
                let _ = writeln!(out, "{name} le +inf {cumulative}");
            }
        }
        out
    }

    /// Deterministic JSON export (single object, names sorted).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(name), value);
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(name), json_f64(*value));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let bounds: Vec<String> = h.bounds.iter().map(|b| json_f64(*b)).collect();
            let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
            let _ = write!(
                out,
                "{}:{{\"bounds\":[{}],\"buckets\":[{}],\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
                json_string(name),
                bounds.join(","),
                buckets.join(","),
                h.count,
                json_f64(h.sum),
                h.min().map_or_else(|| "null".to_string(), json_f64),
                h.max().map_or_else(|| "null".to_string(), json_f64),
            );
        }
        out.push_str("}}");
        out
    }
}

/// Sets `map[name]` to `value`, allocating the key only for a new name.
fn overwrite<V>(map: &mut BTreeMap<String, V>, name: &str, value: V) {
    match map.get_mut(name) {
        Some(slot) => *slot = value,
        None => {
            map.insert(name.to_string(), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_values_land_in_the_le_bucket() {
        let mut h = Histogram::new(&[1.0, 2.0, 5.0]);
        // Exactly on a bound -> that bucket (le semantics).
        h.observe(1.0);
        h.observe(2.0);
        h.observe(5.0);
        assert_eq!(h.bucket_counts(), &[1, 1, 1, 0]);
        // Just above a bound -> next bucket; above the last -> overflow.
        h.observe(1.0000001);
        h.observe(5.0000001);
        assert_eq!(h.bucket_counts(), &[1, 2, 1, 1]);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn extremes_and_empty_histograms() {
        let mut h = Histogram::new(&[10.0]);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        h.observe(0.0);
        h.observe(-3.5);
        h.observe(1e12);
        assert_eq!(h.bucket_counts(), &[2, 1]);
        assert_eq!(h.min(), Some(-3.5));
        assert_eq!(h.max(), Some(1e12));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        Histogram::new(&[1.0, 1.0]);
    }

    #[test]
    fn registry_renders_sorted_and_stable() {
        let build = || {
            let mut m = MetricsRegistry::new();
            m.inc("zeta.count");
            m.add("alpha.count", 2);
            m.set_gauge("mid.gauge", 0.25);
            m.register_histogram("lat", &[1.0, 10.0]);
            m.observe("lat", 0.5);
            m.observe("lat", 10.0);
            m.observe("lat", 11.0);
            m
        };
        let a = build();
        let b = build();
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.render_json(), b.render_json());
        let text = a.render_text();
        let alpha_pos = text.find("alpha.count 2").expect("alpha line");
        let zeta_pos = text.find("zeta.count 1").expect("zeta line");
        assert!(alpha_pos < zeta_pos, "counters sorted by name");
        assert!(text.contains("lat le 10 2"), "cumulative at bound:\n{text}");
        assert!(text.contains("lat le +inf 3"));
        assert!(a.render_json().starts_with("{\"counters\":{"));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::new(&[1.0, 2.0, 5.0]);
        assert_eq!(h.quantile(0.5), None);
        for v in [0.5, 1.5, 1.6, 1.7, 4.0, 9.0] {
            h.observe(v);
        }
        let p50 = h.quantile(0.5).expect("non-empty");
        assert!((1.0..=2.0).contains(&p50), "median in (1,2], got {p50}");
        let p99 = h.quantile(0.99).expect("non-empty");
        assert!(p99 > 5.0, "p99 in the overflow bucket, got {p99}");
        assert!(p99 <= 9.0, "clamped to observed max, got {p99}");
        let p0 = h.quantile(0.0).expect("non-empty");
        assert!(p0 >= 0.5, "clamped to observed min, got {p0}");
        // Single observation: every quantile is that value.
        let mut one = Histogram::new(&[10.0]);
        one.observe(3.0);
        assert_eq!(one.quantile(0.5), Some(3.0));
        assert_eq!(one.quantile(1.0), Some(3.0));
    }

    #[test]
    fn observe_uses_default_latency_bounds() {
        let mut m = MetricsRegistry::new();
        m.observe("transfer.seconds", 3.0);
        let h = m.histogram("transfer.seconds").expect("created");
        assert_eq!(h.bounds(), LATENCY_BOUNDS_SECS);
        assert_eq!(h.count(), 1);
    }
}
