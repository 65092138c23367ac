//! # datagrid-obs
//!
//! Grid-wide observability for the Data Grid reproduction: the layer that
//! lets an experiment explain *why* a replica was chosen and *what* the
//! simulated network and hosts were doing while a transfer ran — the
//! instrumented history that the NWS / regression-prediction lineage of the
//! paper (Vazhkudai & Foster; Vazhkudai & Schopf) builds on.
//!
//! Three cooperating pieces, all dependency-free and deterministic:
//!
//! - **structured events** ([`event::Event`]) retained oldest-first in a
//!   bounded ring buffer ([`event::RingBuffer`]); every GridFTP session
//!   lands there as its `span.open` / `span.phase` / `span.close`
//!   events, emitted by the grid orchestrator straight from the
//!   transfer's outcome;
//! - a **metrics registry** ([`metrics::MetricsRegistry`]) of named
//!   counters, gauges and fixed-bucket histograms, with byte-stable text
//!   and JSON exporters;
//! - a **selection audit log** ([`audit::SelectionAuditLog`]) recording
//!   every cost-model decision's per-candidate `BW_P / CPU_P / IO_P`
//!   breakdown.
//!
//! [`Recorder`] bundles the ring buffer, registry and audit log into one
//! `Clone`-able unit so the `DataGrid` orchestrator (which is cloned for
//! counterfactual replay) carries its instrumentation state by value:
//! clones observe independently and never entangle.
//!
//! Everything renders through `BTreeMap`-ordered iteration and plain
//! decimal formatting, so two identically-seeded runs export byte-identical
//! dumps — that property is load-bearing and covered by tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
pub mod event;
pub mod metrics;
pub mod prof;
pub mod timeline;

pub use audit::{CandidateAudit, SelectionAuditLog, SelectionDecision};
pub use event::{Event, RingBuffer, Value};
pub use metrics::{Histogram, MetricsRegistry};
pub use prof::{PhaseGuard, PhaseProfiler, PhaseStat, ProfSnapshot};
pub use timeline::{LinkHeat, TimelineRecorder, TimelineTotals, WindowSummary};

/// The `Clone`-able observability state a grid carries by value.
///
/// Holds the event ring buffer, the metrics registry and the selection
/// audit log. Cloning a [`Recorder`] (as part of cloning a grid for
/// counterfactual replay) yields a fully independent copy.
#[derive(Debug, Clone)]
pub struct Recorder {
    enabled: bool,
    events: RingBuffer,
    metrics: MetricsRegistry,
    audit: SelectionAuditLog,
}

impl Recorder {
    /// Default ring-buffer capacity (events retained before the oldest are
    /// dropped).
    pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

    /// A recorder with the default event capacity, enabled.
    pub fn new() -> Self {
        Recorder::with_capacity(Self::DEFAULT_EVENT_CAPACITY)
    }

    /// A recorder retaining at most `capacity` events, enabled.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            enabled: true,
            events: RingBuffer::new(capacity),
            metrics: MetricsRegistry::new(),
            audit: SelectionAuditLog::new(),
        }
    }

    /// A recorder that ignores everything handed to it.
    pub fn disabled() -> Self {
        let mut r = Recorder::new();
        r.enabled = false;
        r
    }

    /// Whether this recorder is accepting events and metric updates.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enable or disable recording in place.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Record a structured event (dropped when disabled).
    pub fn emit(&mut self, event: Event) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// The retained event history, oldest first.
    pub fn events(&self) -> impl ExactSizeIterator<Item = &Event> {
        self.events.iter()
    }

    /// How many events were evicted from the ring buffer so far.
    pub fn dropped_events(&self) -> u64 {
        self.events.dropped()
    }

    /// Shared access to the metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A copy of the metrics registry with the recorder's own telemetry
    /// loss injected: `obs.events_dropped` (ring-buffer evictions) and
    /// `obs.decisions_dropped` (audit-log evictions). Every text/JSON
    /// dump built from this snapshot therefore shows whether — and how
    /// much — telemetry was silently discarded.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut snapshot = self.metrics.clone();
        snapshot.set_counter("obs.events_dropped", self.events.dropped());
        snapshot.set_counter("obs.decisions_dropped", self.audit.dropped());
        snapshot
    }

    /// Mutable access to the metrics registry.
    ///
    /// Metric updates land even while the recorder is disabled — upkeep is
    /// cheap and truthful counters are easier to reason about than
    /// half-recorded ones. The enabled flag gates only the event ring and
    /// the audit log; callers wanting full silence gate on
    /// [`Recorder::is_enabled`] themselves.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Shared access to the selection audit log.
    pub fn audit(&self) -> &SelectionAuditLog {
        &self.audit
    }

    /// Mutable access to the selection audit log.
    pub fn audit_mut(&mut self) -> &mut SelectionAuditLog {
        &mut self.audit
    }

    /// Record a selection decision (dropped when disabled).
    pub fn record_decision(&mut self, decision: SelectionDecision) {
        if self.enabled {
            self.audit.record(decision);
        }
    }

    /// All retained events as JSON Lines.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events.iter() {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagrid_simnet::time::SimTime;

    fn decision(i: u64) -> SelectionDecision {
        SelectionDecision {
            time: SimTime::from_nanos(i),
            lfn: format!("lfn{i}"),
            client: "client".to_string(),
            policy: "cost-model".to_string(),
            weights: (0.6, 0.2, 0.2),
            candidates: Vec::new(),
            winner: "host".to_string(),
        }
    }

    #[test]
    fn metrics_snapshot_exposes_drop_counters_in_every_dump() {
        let mut rec = Recorder::with_capacity(2);
        rec.metrics_mut().inc("selection.decisions");
        for i in 0..5u64 {
            rec.emit(Event::new(SimTime::from_nanos(i), "grid", "tick"));
        }
        // Overflow the audit log too, so both loss counters are non-zero.
        let mut audit = SelectionAuditLog::with_capacity(1);
        audit.record(decision(0));
        audit.record(decision(1));
        *rec.audit_mut() = audit;

        let snapshot = rec.metrics_snapshot();
        assert_eq!(snapshot.counter("obs.events_dropped"), 3);
        assert_eq!(snapshot.counter("obs.decisions_dropped"), 1);
        assert_eq!(snapshot.counter("selection.decisions"), 1);
        let text = snapshot.render_text();
        assert!(text.contains("obs.events_dropped 3"), "text dump:\n{text}");
        assert!(
            snapshot.render_json().contains("\"obs.events_dropped\":3"),
            "json dump: {}",
            snapshot.render_json()
        );
        // The live registry stays untouched — the loss counters are
        // injected at snapshot time, not double-counted.
        assert_eq!(rec.metrics().counter("obs.events_dropped"), 0);
    }
}
