//! The deterministic perf budget: `grid_scale --check-budget`.
//!
//! `BENCH_grid.json` is a pure function of the seed in default builds,
//! so its *work counters* — solver passes per decision, batching savings,
//! score-scratch misses — are stable enough to gate CI on directly, with
//! no timing noise and no statistical machinery. The budget file
//! (`ci/grid_budget.json`) states ceilings and floors; this module
//! re-reads the emitted report and fails loudly when one is crossed,
//! which is exactly what a hot-path regression looks like in a
//! deterministic simulator: the counters move, not the milliseconds.
//!
//! Both files are the repo's own flat hand-rendered JSON, so the parser
//! here is the same needle-scanning style as `grid_scale --check` — not
//! a general JSON parser, and deliberately so (no new dependencies).
//!
//! Budget cells are matched to report cells by client count *and*
//! selection mode: a report holds a `static` and a `contention-aware`
//! cell per client count, and each has its own counters. A report cell
//! with no budget entry is reported but not gated (local sweeps run
//! larger cells than CI); a budget that gates *nothing* is an error, so
//! the gate cannot silently rot when client counts drift.

use std::fmt::Write as _;

use crate::extract_number;

/// One `"clients": N, "mode": "..."` object sliced out of a flat JSON
/// array body.
#[derive(Debug, Clone, PartialEq)]
struct Chunk {
    clients: u64,
    mode: String,
    body: String,
}

impl Chunk {
    fn label(&self) -> String {
        format!("{} {}", self.clients, self.mode)
    }
}

/// Extracts the first `"key": "<string>"` from a flat JSON fragment.
fn extract_string<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// Splits the `"cells": [...]` array into per-cell fragments, keyed by
/// their `"clients"` and `"mode"` fields. Cell objects in our reports are `{...}`
/// blocks with no nested objects except the `phases` array, so scanning
/// for balanced braces is sufficient.
fn cells(json: &str) -> Result<Vec<Chunk>, String> {
    let start = json
        .find("\"cells\":")
        .ok_or_else(|| "missing \"cells\" array".to_string())?;
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cell_start = None;
    for (i, c) in json[start..].char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    cell_start = Some(start + i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = cell_start.take() {
                        let body = json[s..=start + i].to_string();
                        let clients = extract_number(&body, "clients")
                            .ok_or_else(|| "cell without \"clients\" field".to_string())?;
                        let mode = extract_string(&body, "mode")
                            .ok_or_else(|| format!("cell {clients} without \"mode\" field"))?
                            .to_string();
                        out.push(Chunk {
                            clients: clients as u64,
                            mode,
                            body,
                        });
                    }
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    if out.is_empty() {
        return Err("\"cells\" array is empty".to_string());
    }
    Ok(out)
}

/// Checks one report cell against one budget cell. Budget keys are
/// `max_<counter>` (ceiling, inclusive) or `min_<counter>` (floor,
/// inclusive) over the report cell's numeric fields.
fn check_cell(report: &Chunk, budget: &Chunk, failures: &mut Vec<String>) -> Vec<String> {
    let mut gated = Vec::new();
    // Walk the budget cell's keys; every max_*/min_* must resolve.
    let mut rest = budget.body.as_str();
    while let Some(q) = rest.find('"') {
        rest = &rest[q + 1..];
        let Some(end) = rest.find('"') else { break };
        let key = &rest[..end];
        rest = &rest[end + 1..];
        let (kind, counter) = if let Some(c) = key.strip_prefix("max_") {
            (Bound::Max, c)
        } else if let Some(c) = key.strip_prefix("min_") {
            (Bound::Min, c)
        } else {
            continue;
        };
        let Some(limit) = extract_number(&budget.body, key) else {
            failures.push(format!(
                "budget cell {}: \"{key}\" is not a number",
                budget.label()
            ));
            continue;
        };
        let Some(actual) = extract_number(&report.body, counter) else {
            failures.push(format!(
                "cell {}: report has no counter \"{counter}\" (budget key \"{key}\")",
                report.label()
            ));
            continue;
        };
        let ok = match kind {
            Bound::Max => actual <= limit,
            Bound::Min => actual >= limit,
        };
        let op = match kind {
            Bound::Max => "<=",
            Bound::Min => ">=",
        };
        if ok {
            gated.push(format!("{counter} = {actual} {op} {limit}"));
        } else {
            failures.push(format!(
                "cell {}: {counter} = {actual}, budget requires {op} {limit}",
                report.label()
            ));
        }
    }
    gated
}

#[derive(Clone, Copy)]
enum Bound {
    Max,
    Min,
}

/// Checks a `BENCH_grid.json` body against a budget body. Returns the
/// human-readable gate summary, or an error listing every violated bound.
///
/// # Errors
///
/// One message per violated bound / malformed field, joined by newlines;
/// also an error when the budget matched no report cell at all (a gate
/// that checks nothing must not pass).
pub fn check_budget(report_json: &str, budget_json: &str) -> Result<String, String> {
    if !budget_json.contains("\"name\": \"grid-budget\"") {
        return Err("budget file is not a grid budget (missing name)".to_string());
    }
    let report_cells = cells(report_json).map_err(|e| format!("report: {e}"))?;
    let budget_cells = cells(budget_json).map_err(|e| format!("budget: {e}"))?;

    let mut failures = Vec::new();
    let mut summary = String::new();
    let mut matched = 0usize;

    for rc in &report_cells {
        match budget_cells
            .iter()
            .find(|bc| (bc.clients, &bc.mode) == (rc.clients, &rc.mode))
        {
            Some(bc) => {
                matched += 1;
                let gated = check_cell(rc, bc, &mut failures);
                let _ = writeln!(
                    summary,
                    "cell {}: {}",
                    rc.label(),
                    if gated.is_empty() {
                        "no bounds".to_string()
                    } else {
                        gated.join(", ")
                    }
                );
            }
            None => {
                let _ = writeln!(summary, "cell {}: no budget entry (not gated)", rc.label());
            }
        }
    }

    if matched == 0 {
        failures.push(format!(
            "budget gated nothing: no budget cell matches the report's cells {:?}",
            report_cells.iter().map(Chunk::label).collect::<Vec<_>>()
        ));
    }
    if failures.is_empty() {
        Ok(summary)
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(clients: u64, mode: &str, solves_per_decision: f64, solves_avoided: u64) -> String {
        format!(
            "    {{\n      \"clients\": {clients},\n      \"mode\": \"{mode}\",\n      \
             \"solves_avoided\": {solves_avoided},\n      \
             \"solves_per_decision\": {solves_per_decision:.6}\n    }}"
        )
    }

    fn report_of(cells: &[String]) -> String {
        format!(
            "{{\n  \"name\": \"grid-scale\",\n  \"cells\": [\n{}\n  ]\n}}\n",
            cells.join(",\n")
        )
    }

    fn report(solves_per_decision: f64, solves_avoided: u64) -> String {
        report_of(&[cell(16, CA, solves_per_decision, solves_avoided)])
    }

    const CA: &str = "contention-aware";

    const BUDGET: &str = "{\n  \"name\": \"grid-budget\",\n  \"cells\": [\n    {\n      \
        \"clients\": 16,\n      \"mode\": \"contention-aware\",\n      \
        \"max_solves_per_decision\": 40.0,\n      \"min_solves_avoided\": 1\n    }\n  ]\n}\n";

    #[test]
    fn compliant_report_passes() {
        let summary = check_budget(&report(30.0, 12), BUDGET).unwrap();
        assert!(
            summary.contains("cell 16 contention-aware: solves_per_decision = 30 <= 40"),
            "{summary}"
        );
    }

    #[test]
    fn injected_solver_regression_fails() {
        // A hot-path regression shows up as more solver passes per
        // arrival; the gate must trip on exactly that counter.
        let err = check_budget(&report(55.0, 12), BUDGET).unwrap_err();
        assert!(err.contains("solves_per_decision = 55"), "{err}");
        assert!(err.contains("<= 40"), "{err}");
    }

    #[test]
    fn lost_batching_fails_the_floor() {
        let err = check_budget(&report(30.0, 0), BUDGET).unwrap_err();
        assert!(err.contains("solves_avoided = 0"), "{err}");
        assert!(err.contains(">= 1"), "{err}");
    }

    #[test]
    fn budget_cells_match_on_clients_and_mode() {
        // The static cell at the same client count has its own counters,
        // far outside the contention-aware bounds; it must not be gated.
        let both = report_of(&[cell(16, "static", 99.0, 0), cell(16, CA, 30.0, 12)]);
        let summary = check_budget(&both, BUDGET).unwrap();
        assert!(
            summary.contains("cell 16 static: no budget entry"),
            "{summary}"
        );
        assert!(
            summary.contains("cell 16 contention-aware: solves_per_decision = 30"),
            "{summary}"
        );
        // The matching-mode cell is still gated.
        let regressed = report_of(&[cell(16, "static", 1.0, 5), cell(16, CA, 55.0, 12)]);
        let err = check_budget(&regressed, BUDGET).unwrap_err();
        assert_eq!(
            err,
            "cell 16 contention-aware: solves_per_decision = 55, budget requires <= 40"
        );
    }

    #[test]
    fn budget_cell_without_mode_is_rejected() {
        let budget = BUDGET.replace("      \"mode\": \"contention-aware\",\n", "");
        let err = check_budget(&report(30.0, 12), &budget).unwrap_err();
        assert!(err.contains("budget: cell 16 without \"mode\""), "{err}");
    }

    #[test]
    fn unmatched_budget_gates_nothing_and_fails() {
        let other = report_of(&[cell(64, CA, 1.0, 5), cell(16, "static", 1.0, 5)]);
        let err = check_budget(&other, BUDGET).unwrap_err();
        assert!(err.contains("budget gated nothing"), "{err}");
    }

    #[test]
    fn unknown_report_counter_fails() {
        let budget = BUDGET.replace("max_solves_per_decision", "max_zorp");
        let err = check_budget(&report(1.0, 5), &budget).unwrap_err();
        assert!(err.contains("no counter \"zorp\""), "{err}");
    }

    #[test]
    fn ungated_cells_are_reported() {
        let two = report_of(&[cell(16, CA, 1.0, 5), cell(4096, CA, 9.0, 5)]);
        let summary = check_budget(&two, BUDGET).unwrap();
        assert!(
            summary.contains("cell 4096 contention-aware: no budget entry"),
            "{summary}"
        );
    }

    #[test]
    fn wrong_budget_name_is_rejected() {
        let err = check_budget(&report(1.0, 5), "{\"name\": \"grid\"}").unwrap_err();
        assert!(err.contains("not a grid budget"), "{err}");
    }
}
