//! Shared helpers for the experiment reproducers (`src/bin/*`) and the
//! criterion micro-benchmarks (`benches/*`).
//!
//! One binary per paper artefact:
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig3` | Fig. 3 — FTP vs GridFTP transfer time |
//! | `fig4` | Fig. 4 — GridFTP parallel data transfer |
//! | `table1` | Table 1 — cost model scores vs measured transfer time |
//! | `fig5` | Fig. 5 — the cost program (time series + sorted list) |
//! | `ablation_weights` | future work §5(2) — weight sweep |
//! | `ablation_policies` | policy comparison vs oracle |
//! | `ablation_striped` | future work §5(1) — striped transfers |
//! | `ablation_scale` | future work §5(3) — larger dynamic grids |
//! | `ablation_forecasters` | NWS forecaster accuracy |
//! | `ablation_security` | FTP vs GridFTP PROT C/S/P cost |
//! | `ablation_replication` | dynamic replica creation strategies |
//! | `scale` | simulation-core settle throughput (`BENCH_simnet.json`) |
//! | `grid_scale` | multi-client replay sweep, static vs contention-aware, with phase profile and health timeline (`BENCH_grid.json`) |
//! | `fuzz` | seeded differential fuzzing of paired engine configurations |
//!
//! The sweep bins fan independent cells out with
//! [`datagrid_testbed::par::par_map`]; `DATAGRID_JOBS=1` forces the
//! serial path, any value the worker count — output is byte-identical
//! either way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod schema;

use datagrid_core::grid::DataGrid;
use datagrid_simnet::time::SimDuration;
use datagrid_testbed::calibration::Calibration;
use datagrid_testbed::sites::paper_testbed_with;

/// Bytes per megabyte as the paper counts them (2^20).
pub const MB: u64 = 1 << 20;

/// The file sizes of Figs. 3 and 4, in megabytes.
pub const PAPER_SIZES_MB: [u64; 4] = [256, 512, 1024, 2048];

/// The default experiment seed. Every binary prints it; pass a different
/// one as the first CLI argument to resample.
pub const DEFAULT_SEED: u64 = 20050905; // PaCT 2005 in Krasnoyarsk

/// Reads the seed from the first CLI argument, defaulting to
/// [`DEFAULT_SEED`].
pub fn seed_from_args() -> u64 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// Prints the standard experiment banner.
pub fn banner(name: &str, seed: u64) {
    println!("=== {name} (seed {seed}) ===");
    println!(
        "testbed: THU (4x dual Athlon MP 2.0GHz, 1Gbps) / Li-Zen (4x Celeron 900MHz, 30Mbps) / \
         HIT (4x P4 2.8GHz, 1Gbps) -- simulated"
    );
    println!();
}

/// Builds the paper testbed, warmed up so NWS sensors and load processes
/// have history.
pub fn warmed_paper_grid(seed: u64, warm: SimDuration) -> DataGrid {
    let (builder, _) = paper_testbed_with(seed, &Calibration::default());
    let mut grid = builder.build();
    grid.warm_up(warm);
    grid
}

/// Name of the environment variable that switches the reproducer binaries
/// into observability-dump mode.
pub const OBS_DIR_ENV: &str = "DATAGRID_OBS_DIR";

/// Writes the grid's full observability dump (metrics text + JSON, event
/// JSONL, selection audit) under `$DATAGRID_OBS_DIR` as `<label>.*` files.
/// A no-op when the variable is unset or empty, so the reproducers stay
/// dependency-free by default.
pub fn emit_observability(grid: &DataGrid, label: &str) {
    let Ok(dir) = std::env::var(OBS_DIR_ENV) else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    match datagrid_testbed::experiment::write_obs_dump(grid, std::path::Path::new(&dir), label) {
        Ok(paths) => println!(
            "\nobservability: wrote {} dump files under {dir}/{label}.*",
            paths.len()
        ),
        Err(err) => eprintln!("observability: dump to {dir} failed: {err}"),
    }
}

/// Writes a metrics dump built from a bare engine's counters under
/// `$DATAGRID_OBS_DIR` as `<label>.metrics.{txt,json}` — the engine-only
/// counterpart of [`emit_observability`] for bins that drive [`NetSim`]
/// directly (no grid, so no event ring or selection audit exists). A
/// no-op when the variable is unset or empty.
pub fn emit_engine_observability(sim: &datagrid_simnet::engine::NetSim, label: &str) {
    let Ok(dir) = std::env::var(OBS_DIR_ENV) else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let mut m = datagrid_obs::MetricsRegistry::new();
    for (name, value) in sim.stats().counters() {
        m.set_counter(name, value);
    }
    let dir = std::path::Path::new(&dir);
    let write_all = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{label}.metrics.txt")), m.render_text())?;
        std::fs::write(dir.join(format!("{label}.metrics.json")), m.render_json())?;
        Ok(())
    };
    match write_all() {
        Ok(()) => println!(
            "\nobservability: wrote engine metrics under {}/{label}.metrics.*",
            dir.display()
        ),
        Err(err) => eprintln!("observability: dump to {} failed: {err}", dir.display()),
    }
}

/// Reads a comma-separated list of counts from environment variable
/// `name`, falling back to `default` when it is unset, empty or holds no
/// parsable entry.
pub fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|part| part.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// Reads a count from environment variable `name`, falling back to
/// `default` when it is unset or does not parse.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Extracts the first `"key": <number>` from one of the flat,
/// hand-rendered JSON reports the bins write. A needle scan, not a JSON
/// parser: the reports' shape is known, and it needs no dependency.
pub fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Slices the top-level `{...}` objects of the array under `"key":` in
/// one of the flat, hand-rendered JSON reports. A balanced-brace scan:
/// the reports put no braces inside strings.
///
/// # Errors
///
/// When the array is missing or holds no object.
pub fn array_objects<'a>(json: &'a str, key: &str) -> Result<Vec<&'a str>, String> {
    let start = json
        .find(&format!("\"{key}\":"))
        .ok_or_else(|| format!("missing \"{key}\" array"))?;
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut open = None;
    for (i, c) in json[start..].char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    open = Some(start + i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if let (0, Some(s)) = (depth, open) {
                    out.push(&json[s..=start + i]);
                    open = None;
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    if out.is_empty() {
        return Err(format!("\"{key}\" array is empty"));
    }
    Ok(out)
}

/// Lowercases `s` and replaces every non-alphanumeric run with a single
/// `_`, for use in observability dump file names (`emit_observability`
/// labels built from sweep-cell keys like `"fetch-count >= 2"`).
pub fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut gap = false;
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            if gap && !out.is_empty() {
                out.push('_');
            }
            gap = false;
            out.push(c.to_ascii_lowercase());
        } else {
            gap = true;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slug_flattens_cell_keys() {
        assert_eq!(slug("fetch-count >= 2"), "fetch_count_2");
        assert_eq!(
            slug("GridFTP PROT S (integrity)"),
            "gridftp_prot_s_integrity"
        );
        assert_eq!(slug("cost-model"), "cost_model");
    }

    #[test]
    fn warmed_grid_is_ready() {
        let grid = warmed_paper_grid(1, SimDuration::from_secs(60));
        assert_eq!(grid.now().as_secs_f64(), 60.0);
    }

    #[test]
    fn sizes_match_paper() {
        assert_eq!(PAPER_SIZES_MB, [256, 512, 1024, 2048]);
    }
}
