//! Experiment harness: text tables, selection-quality evaluation and
//! observability dumps.

#![cfg_attr(
    not(test),
    expect(
        clippy::panic,
        reason = "harness-level: a scenario referencing unknown hosts/files is unrunnable, abort loudly"
    )
)]
#![cfg_attr(
    not(test),
    expect(
        clippy::expect_used,
        reason = "oracle sweep guarantees at least one scored candidate"
    )
)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use datagrid_core::grid::{DataGrid, FetchOptions};
use datagrid_core::policy::SelectionPolicy;
use datagrid_simnet::time::SimTime;

use crate::workload::RequestTrace;

/// A fixed-width text table (what the bench binaries print, standing in
/// for the paper's figures).
///
/// ```
/// use datagrid_testbed::experiment::TextTable;
///
/// let mut t = TextTable::new(["size", "ftp", "gridftp"]);
/// t.row(["256 MB", "21.4", "22.1"]);
/// let s = t.render();
/// assert!(s.contains("gridftp"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns (first column left-aligned,
    /// the rest right-aligned).
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 {
                    let _ = write!(out, "{cell:<w$}");
                } else {
                    let _ = write!(out, "{cell:>w$}");
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Aggregate quality of a selection policy over a request trace.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityStats {
    /// The policy's name.
    pub policy: &'static str,
    /// Requests evaluated.
    pub requests: usize,
    /// Mean end-to-end transfer duration in seconds.
    pub mean_duration_s: f64,
    /// Fraction of requests where the policy picked the candidate an
    /// oracle (counterfactual replay of every candidate) found fastest.
    pub oracle_accuracy: f64,
    /// Mean relative regret versus the oracle's best duration.
    pub mean_regret: f64,
}

/// Evaluates a selection policy against the clone-based oracle.
///
/// For every request, the grid is cloned once per candidate and the fetch
/// is replayed with that candidate forced, under identical randomness —
/// giving the true counterfactual transfer times. The policy's pick is
/// then scored against the fastest.
///
/// # Panics
///
/// Panics if a request references an unknown client or file.
pub fn selection_quality(
    grid: &mut DataGrid,
    trace: &RequestTrace,
    policy: SelectionPolicy,
    options: FetchOptions,
) -> QualityStats {
    grid.selector_mut().set_policy(policy.clone());
    let mut durations = Vec::new();
    let mut hits = 0usize;
    let mut regrets = Vec::new();
    for req in trace.requests() {
        let at = SimTime::from_nanos(req.at.as_nanos().max(grid.now().as_nanos()));
        grid.advance_to(at);
        let client = grid
            .host_id(&req.client)
            .unwrap_or_else(|| panic!("unknown client {}", req.client));

        // Oracle: replay every candidate on a clone.
        let candidates = grid
            .score_candidates(client, &req.lfn)
            .unwrap_or_else(|e| panic!("scoring {} failed: {e}", req.lfn));
        let mut best: Option<(String, f64)> = None;
        for c in &candidates {
            let mut probe = grid.clone();
            let secs = probe
                .fetch_from(client, &req.lfn, &c.host_name, options)
                .unwrap_or_else(|e| panic!("oracle fetch failed: {e}"))
                .transfer
                .duration()
                .as_secs_f64();
            if best.as_ref().is_none_or(|(_, b)| secs < *b) {
                best = Some((c.host_name.clone(), secs));
            }
        }
        let (best_host, best_secs) = best.expect("at least one candidate");

        let report = grid
            .fetch_with(client, &req.lfn, options)
            .unwrap_or_else(|e| panic!("fetch {} failed: {e}", req.lfn));
        let secs = report.transfer.duration().as_secs_f64();
        durations.push(secs);
        if report.chosen_candidate().host_name == best_host {
            hits += 1;
        }
        regrets.push((secs - best_secs).max(0.0) / best_secs.max(1e-9));
    }
    let n = durations.len().max(1);
    QualityStats {
        policy: policy.name(),
        requests: durations.len(),
        mean_duration_s: durations.iter().sum::<f64>() / n as f64,
        oracle_accuracy: hits as f64 / n as f64,
        mean_regret: regrets.iter().sum::<f64>() / n as f64,
    }
}

/// Replays a request trace verbatim, returning every fetch report — the
/// plain (oracle-free) counterpart of [`selection_quality`] for workload
/// studies and examples.
///
/// # Panics
///
/// Panics if a request references an unknown client or file.
pub fn replay_trace(
    grid: &mut DataGrid,
    trace: &RequestTrace,
    options: FetchOptions,
) -> Vec<datagrid_core::grid::FetchReport> {
    let mut reports = Vec::with_capacity(trace.len());
    for req in trace.requests() {
        let at = SimTime::from_nanos(req.at.as_nanos().max(grid.now().as_nanos()));
        grid.advance_to(at);
        let client = grid
            .host_id(&req.client)
            .unwrap_or_else(|| panic!("unknown client {}", req.client));
        let report = grid
            .fetch_with(client, &req.lfn, options)
            .unwrap_or_else(|e| panic!("fetch {} failed: {e}", req.lfn));
        reports.push(report);
    }
    reports
}

/// Every observability export of a grid run, rendered to strings.
///
/// All five renders are deterministic: two identically seeded runs
/// produce byte-identical dumps.
#[derive(Debug, Clone)]
pub struct ObsDump {
    /// Metrics snapshot in the line-oriented text format.
    pub metrics_text: String,
    /// Metrics snapshot as a single JSON object.
    pub metrics_json: String,
    /// Retained structured events as JSON Lines, oldest first.
    pub events_jsonl: String,
    /// Selection audit log as a human-readable report.
    pub audit_text: String,
    /// Selection audit log as JSON Lines, one decision per line.
    pub audit_jsonl: String,
}

/// Renders the full observability state of a grid — metrics (merged with
/// the engine and catalog counters), event history and selection audit.
pub fn obs_dump(grid: &DataGrid) -> ObsDump {
    let metrics = grid.metrics_snapshot();
    ObsDump {
        metrics_text: metrics.render_text(),
        metrics_json: metrics.render_json(),
        events_jsonl: grid.recorder().events_jsonl(),
        audit_text: grid.audit().render_text(),
        audit_jsonl: grid.audit().render_jsonl(),
    }
}

/// Writes an [`obs_dump`] to `dir` as five files named
/// `<label>.metrics.txt`, `<label>.metrics.json`, `<label>.events.jsonl`,
/// `<label>.audit.txt` and `<label>.audit.jsonl`, creating the directory
/// if needed. Returns the written paths.
///
/// # Errors
///
/// Propagates any I/O error from creating the directory or writing.
pub fn write_obs_dump(grid: &DataGrid, dir: &Path, label: &str) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let dump = obs_dump(grid);
    let files = [
        ("metrics.txt", dump.metrics_text),
        ("metrics.json", dump.metrics_json),
        ("events.jsonl", dump.events_jsonl),
        ("audit.txt", dump.audit_text),
        ("audit.jsonl", dump.audit_jsonl),
    ];
    let mut written = Vec::with_capacity(files.len());
    for (suffix, contents) in files {
        let path = dir.join(format!("{label}.{suffix}"));
        std::fs::write(&path, contents)?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::paper_testbed;
    use crate::workload::Request;
    use datagrid_simnet::time::SimDuration;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["file size", "FTP (s)", "GridFTP (s)"]);
        t.row(["256 MB", "20.1", "21.3"]);
        t.row(["2048 MB", "161.0", "162.2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        // All lines equally wide.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn quality_harness_runs_on_small_trace() {
        let mut grid = paper_testbed(11).build();
        grid.catalog_mut()
            .register_logical("file-q".parse().unwrap(), 8 << 20)
            .unwrap();
        grid.place_replica("file-q", "alpha4").unwrap();
        grid.place_replica("file-q", "lz02").unwrap();
        grid.warm_up(SimDuration::from_secs(120));
        let trace = RequestTrace::from_requests(vec![
            Request {
                at: SimTime::from_secs_f64(130.0),
                client: "alpha1".into(),
                lfn: "file-q".into(),
            },
            Request {
                at: SimTime::from_secs_f64(200.0),
                client: "alpha1".into(),
                lfn: "file-q".into(),
            },
        ]);
        let stats = selection_quality(
            &mut grid,
            &trace,
            SelectionPolicy::CostModel,
            FetchOptions::default(),
        );
        assert_eq!(stats.requests, 2);
        // alpha4 over the LAN is obviously best; the cost model must find it.
        assert_eq!(stats.oracle_accuracy, 1.0, "{stats:?}");
        assert!(stats.mean_regret < 1e-9);
        assert!(stats.mean_duration_s > 0.0);
    }
}

#[cfg(test)]
mod replay_tests {
    use super::*;
    use crate::sites::paper_testbed;
    use crate::workload::RequestTrace;
    use datagrid_simnet::time::SimDuration;

    #[test]
    fn replay_returns_one_report_per_request() {
        let mut grid = paper_testbed(21).build();
        grid.catalog_mut()
            .register_logical("file-r".parse().unwrap(), 8 << 20)
            .unwrap();
        grid.place_replica("file-r", "alpha4").unwrap();
        grid.warm_up(SimDuration::from_secs(60));
        let trace = RequestTrace::poisson(
            &["alpha1", "gridhit1"],
            &["file-r"],
            1.0 / 60.0,
            SimDuration::from_secs(400),
            5,
        );
        let reports = replay_trace(&mut grid, &trace, FetchOptions::default());
        assert_eq!(reports.len(), trace.len());
        assert!(reports.iter().all(|r| r.transfer.payload_bytes == 8 << 20));
        // Time moved forward past the last request.
        assert!(grid.now() >= trace.requests().last().unwrap().at);
    }

    #[test]
    fn obs_dump_renders_and_writes_every_surface() {
        let mut grid = paper_testbed(22).build();
        grid.catalog_mut()
            .register_logical("file-d".parse().unwrap(), 8 << 20)
            .unwrap();
        grid.place_replica("file-d", "alpha4").unwrap();
        grid.warm_up(SimDuration::from_secs(60));
        let client = grid.host_id("alpha1").unwrap();
        grid.fetch(client, "file-d").unwrap();

        let dump = obs_dump(&grid);
        assert!(dump.metrics_text.contains("transfer.seconds"));
        assert!(dump.metrics_json.contains("\"selection.decisions\":1"));
        assert!(dump.events_jsonl.contains("\"kind\":\"span.close\""));
        assert!(dump.audit_text.contains("alpha4"));
        assert_eq!(dump.audit_jsonl.lines().count(), 1);

        let dir = std::env::temp_dir().join(format!("datagrid-obs-{}", std::process::id()));
        let written = write_obs_dump(&grid, &dir, "smoke").unwrap();
        assert_eq!(written.len(), 5);
        for path in &written {
            let body = std::fs::read_to_string(path).unwrap();
            assert!(!body.is_empty(), "{} is empty", path.display());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
