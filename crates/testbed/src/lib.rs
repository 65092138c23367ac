//! # datagrid-testbed
//!
//! The paper's experimental environment, reproduced in simulation:
//!
//! * [`calibration`] — the constants that set absolute scale (WAN
//!   latencies, loss rates, background traffic, disks, GSI cost),
//! * [`sites`] — the three-cluster testbed (THU, Li-Zen, HIT) wired to a
//!   TANet backbone, with the paper's host names,
//! * [`workload`] — request workloads over replicated files, including
//!   the deterministic multi-client grid-scale generator,
//! * [`gridscale`] — the grid-scale sweep harness: N concurrent clients
//!   replayed against one shared simulator with the health timeline and
//!   phase profiler attached, per-cell metrics and the deterministic
//!   `BENCH_grid.json` body,
//! * [`experiment`] — text-table rendering and the selection-quality
//!   harness (oracle comparison) used by the benches,
//! * [`fuzz`] — the seeded differential fuzzing harness: random
//!   topologies, fault schedules and workloads replayed through paired
//!   engine configurations, with oracle diffing and scenario shrinking,
//! * [`par`] — deterministic order-preserving parallel map for the bench
//!   sweeps (`DATAGRID_JOBS` controls the worker count).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calibration;
pub mod experiment;
pub mod fuzz;
pub mod gridscale;
pub mod par;
pub mod sites;
pub mod workload;

pub use sites::{canonical_host, paper_testbed, PaperSites};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::calibration::Calibration;
    pub use crate::experiment::{
        obs_dump, replay_trace, selection_quality, write_obs_dump, ObsDump, QualityStats, TextTable,
    };
    pub use crate::fuzz::{
        check_scenario, render_divergence_report, run_scenario, shrink, Divergence, FuzzSpec,
        Oracle, Pair, RunConfig, Surfaces, BASELINE, PAIRS,
    };
    pub use crate::gridscale::{
        all_paper_hosts, build_cell, run_grid_scale, run_grid_scale_cell, GridScaleCell,
        GridScaleConfig, GridScaleReport, GridScaleRun,
    };
    pub use crate::par::{par_map, worker_count};
    pub use crate::sites::{canonical_host, paper_testbed, PaperSites};
    pub use crate::workload::{
        grid_workload, synthetic_files, GridWorkload, GridWorkloadSpec, Request, RequestTrace,
    };
}
