//! Shape checks of the emitted reports: `grid_scale --check`
//! (`BENCH_grid.json`) and `scale --check` (`BENCH_simnet.json`).
//!
//! Every cell of a grid report and every figure of a scale report is
//! checked on its own, so a field missing from the last cell fails as
//! surely as one missing from the first. These are schema checks, not
//! perf gates: the perf gate is [`crate::budget`].

use crate::{array_objects, extract_number};

/// Grid-cell fields that must be present and strictly positive.
const GRID_POSITIVE: [&str; 15] = [
    "clients",
    "fetches",
    "completed",
    "makespan_s",
    "fetches_per_sec",
    "latency_p50_s",
    "latency_p99_s",
    "incremental_solves",
    "decisions",
    "decisions_per_sec",
    "settles",
    "settles_per_sec",
    "replay_solves",
    "solves_per_decision",
    "windows",
];

/// Hot-path counters that may legitimately be zero (a tiny cell can
/// batch nothing); present and non-negative is the shape contract.
const GRID_NON_NEGATIVE: [&str; 6] = [
    "uncongested_solves",
    "event_cohorts",
    "batched_solves",
    "solves_avoided",
    "scratch_hits",
    "scratch_misses",
];

/// Phase entries every grid cell's profile must carry.
const GRID_PHASES: [&str; 4] = ["settle", "settle/solve", "decide", "dispatch"];

/// Fields every scale figure must carry, strictly positive.
const SCALE_POSITIVE: [&str; 3] = [
    "flows_sustained",
    "settle_throughput_speedup",
    "wall_speedup",
];

/// Fields of each solver mode's run inside a scale figure.
const SCALE_MODE_POSITIVE: [&str; 4] = [
    "wall_s",
    "events_processed",
    "events_per_sec",
    "settles_per_sec",
];

fn field(obj: &str, key: &str, what: &str) -> Result<f64, String> {
    extract_number(obj, key).ok_or_else(|| format!("{what}: missing numeric field \"{key}\""))
}

fn positive(obj: &str, keys: &[&str], what: &str) -> Result<(), String> {
    for &key in keys {
        let v = field(obj, key, what)?;
        if v.is_nan() || v <= 0.0 {
            return Err(format!("{what}: field \"{key}\" = {v}, expected > 0"));
        }
    }
    Ok(())
}

/// The `{...}` object under `"key":` in `obj`.
fn object_field<'a>(obj: &'a str, key: &str, what: &str) -> Result<&'a str, String> {
    let missing = || format!("{what}: missing object \"{key}\"");
    let at = obj.find(&format!("\"{key}\":")).ok_or_else(missing)?;
    let open = at + obj[at..].find('{').ok_or_else(missing)?;
    let len = obj[open..].find('}').ok_or_else(missing)?;
    Ok(&obj[open..=open + len])
}

/// Checks a `BENCH_grid.json` body cell by cell; returns a one-line
/// summary of the last (largest) cell.
///
/// # Errors
///
/// The first malformed cell and field.
pub fn check_grid_report(json: &str) -> Result<String, String> {
    if !json.contains("\"grid-scale\"") {
        return Err("not a grid-scale report".to_string());
    }
    if !json.contains("\"timing\": true") && !json.contains("\"timing\": false") {
        return Err("missing \"timing\" flag".to_string());
    }
    let cells = array_objects(json, "cells")?;
    for (i, cell) in cells.iter().enumerate() {
        let what = format!("cell {i}");
        positive(cell, &GRID_POSITIVE, &what)?;
        for key in GRID_NON_NEGATIVE {
            let v = field(cell, key, &what)?;
            if v.is_nan() || v < 0.0 {
                return Err(format!("{what}: field \"{key}\" = {v}, expected >= 0"));
            }
        }
        for phase in GRID_PHASES {
            if !cell.contains(&format!("\"path\": \"{phase}\"")) {
                return Err(format!("{what}: missing phase entry \"{phase}\""));
            }
        }
        let fetches = field(cell, "fetches", &what)?;
        let completed = field(cell, "completed", &what)?;
        if completed > fetches {
            return Err(format!(
                "{what}: completed {completed} exceeds fetches {fetches}"
            ));
        }
    }
    let last = cells[cells.len() - 1];
    let get = |key| extract_number(last, key).unwrap_or(0.0);
    Ok(format!(
        "{} cells ok; last: {:.0} clients, {:.0} fetches, {:.2} fetches/s, p50 {:.1}s, \
         {:.2} solves/decision",
        cells.len(),
        get("clients"),
        get("fetches"),
        get("fetches_per_sec"),
        get("latency_p50_s"),
        get("solves_per_decision"),
    ))
}

/// Checks a `BENCH_simnet.json` body: the headline and every figure with
/// both of its solver-mode runs; returns a one-line summary.
///
/// # Errors
///
/// The first malformed figure and field.
pub fn check_scale_report(json: &str) -> Result<String, String> {
    if !json.contains("\"simnet-scale\"") {
        return Err("not a simnet-scale report".to_string());
    }
    // The headline fields precede the figures, so the first match is the
    // headline's own.
    positive(
        json,
        &[
            "flows_sustained",
            "events_per_sec",
            "settles_per_sec",
            "settle_throughput_speedup",
        ],
        "headline",
    )?;
    let figures = array_objects(json, "figures")?;
    for (i, fig) in figures.iter().enumerate() {
        let what = format!("figure {i}");
        positive(fig, &SCALE_POSITIVE, &what)?;
        for mode in ["baseline_full", "incremental"] {
            let run = object_field(fig, mode, &what)?;
            positive(run, &SCALE_MODE_POSITIVE, &format!("{what} {mode}"))?;
        }
    }
    let get = |key| extract_number(json, key).unwrap_or(0.0);
    Ok(format!(
        "{} figures ok; {} flows, {:.0} events/s, {:.0} settles/s, {:.1}x settle speedup",
        figures.len(),
        get("flows_sustained"),
        get("events_per_sec"),
        get("settles_per_sec"),
        get("settle_throughput_speedup"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRID: &str = include_str!("../../../BENCH_grid.json");
    const SCALE: &str = include_str!("../../../BENCH_simnet.json");

    /// Deletes `"key": ...,` from the last object of the array under
    /// `"array":` in `json`.
    fn drop_from_last(json: &str, array: &str, key: &str) -> String {
        let last = *array_objects(json, array).unwrap().last().unwrap();
        let at = json.rfind(last).unwrap();
        let needle = format!("\"{key}\":");
        let start = at + last.find(&needle).unwrap();
        let end = start + json[start..].find(',').unwrap() + 1;
        format!("{}{}", &json[..start], &json[end..])
    }

    #[test]
    fn committed_reports_pass() {
        let grid = check_grid_report(GRID).unwrap();
        assert!(grid.contains("cells ok"), "{grid}");
        let scale = check_scale_report(SCALE).unwrap();
        assert!(scale.starts_with("2 figures ok"), "{scale}");
    }

    #[test]
    fn grid_field_missing_from_the_last_cell_is_rejected() {
        let cells = array_objects(GRID, "cells").unwrap().len();
        let broken = drop_from_last(GRID, "cells", "windows");
        // The first cell still carries the field, so a first-match scan
        // would have passed this report.
        assert!(extract_number(&broken, "windows").is_some());
        let err = check_grid_report(&broken).unwrap_err();
        assert_eq!(
            err,
            format!("cell {}: missing numeric field \"windows\"", cells - 1)
        );
    }

    #[test]
    fn grid_phase_missing_from_the_last_cell_is_rejected() {
        let cells = array_objects(GRID, "cells").unwrap().len();
        let needle = "\"path\": \"dispatch\"";
        let at = GRID.rfind(needle).unwrap();
        let broken = format!(
            "{}\"path\": \"gone\"{}",
            &GRID[..at],
            &GRID[at + needle.len()..]
        );
        let err = check_grid_report(&broken).unwrap_err();
        assert_eq!(
            err,
            format!("cell {}: missing phase entry \"dispatch\"", cells - 1)
        );
    }

    #[test]
    fn scale_field_missing_from_the_last_figure_is_rejected() {
        let broken = drop_from_last(SCALE, "figures", "settle_throughput_speedup");
        let err = check_scale_report(&broken).unwrap_err();
        assert_eq!(
            err,
            "figure 1: missing numeric field \"settle_throughput_speedup\""
        );
        // Inside the last figure's incremental run.
        let last = *array_objects(SCALE, "figures").unwrap().last().unwrap();
        let inc = object_field(last, "incremental", "").unwrap();
        let broken = SCALE.replacen(inc, &inc.replace("\"events_per_sec\"", "\"eps\""), 1);
        let err = check_scale_report(&broken).unwrap_err();
        assert_eq!(
            err,
            "figure 1 incremental: missing numeric field \"events_per_sec\""
        );
    }

    #[test]
    fn wrong_report_kind_is_rejected() {
        assert!(check_grid_report(SCALE).is_err());
        assert!(check_scale_report(GRID).is_err());
    }
}
