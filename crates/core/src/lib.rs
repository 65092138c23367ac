//! # datagrid-core
//!
//! The paper's contribution: **cost-model driven replica selection** for
//! Data Grid environments, plus the [`grid::DataGrid`] orchestrator that
//! stitches every substrate together and executes the paper's replica
//! selection scenario (its Fig. 1) end to end.
//!
//! * [`factors`] — the three system factors (`BW_P`, `CPU_P`, `IO_P`),
//! * [`cost`] — formula (1) with the administrator weights (0.8/0.1/0.1),
//! * [`policy`] — the cost-model policy and the baseline policies used in
//!   ablations,
//! * [`history`] — the Fig. 5 cost program's data model,
//! * [`grid`] — builder and orchestrator.
//!
//! ## Example
//!
//! ```
//! use datagrid_core::grid::GridBuilder;
//! use datagrid_simnet::prelude::*;
//! use datagrid_sysmon::host::HostSpec;
//! use datagrid_sysmon::load::LoadModel;
//!
//! let mut b = GridBuilder::new(7);
//! let a = b.add_host(HostSpec::new("a"), LoadModel::Constant(0.1), LoadModel::Constant(0.1));
//! let c = b.add_host(HostSpec::new("c"), LoadModel::Constant(0.3), LoadModel::Constant(0.2));
//! b.topology_mut().add_duplex_link(
//!     a, c,
//!     LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_millis(5)),
//! );
//! b.monitor_all_host_pairs();
//! let mut grid = b.build();
//! grid.catalog_mut().register_logical("file-a".parse().unwrap(), 8 << 20).unwrap();
//! grid.place_replica("file-a", "c").unwrap();
//! grid.warm_up(SimDuration::from_secs(60));
//! let client = grid.host_id("a").unwrap();
//! let report = grid.fetch(client, "file-a").unwrap();
//! assert_eq!(report.chosen_candidate().host_name, "c");
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod error;
pub mod factors;
pub mod grid;
pub mod history;
pub mod job;
pub mod policy;
pub mod recovery;
pub mod replication;
pub mod tuning;

pub use cost::{CostModel, Weights};
pub use error::GridError;
pub use factors::{CandidateScore, SystemFactors};
pub use grid::modelcheck::{explore, Exploration, FetchModel};
pub use grid::replay::{
    FetchPhase, FetchState, ReplayJob, ReplayOutcome, ReplayReport, ReplayStatus,
};
pub use grid::{DataGrid, FetchOptions, FetchReport, GridBuilder, SelectionMode};
pub use policy::{ReplicaSelector, SelectionPolicy};
pub use recovery::{RecoveredFetch, RecoveryOptions};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::cost::{CostModel, Weights};
    pub use crate::error::GridError;
    pub use crate::factors::{CandidateScore, SystemFactors};
    pub use crate::grid::replay::{ReplayJob, ReplayOutcome, ReplayReport, ReplayStatus};
    pub use crate::grid::{DataGrid, FetchOptions, FetchReport, GridBuilder, SelectionMode};
    pub use crate::history::CostHistory;
    pub use crate::job::{JobReport, JobSpec};
    pub use crate::policy::{ReplicaSelector, SelectionPolicy};
    pub use crate::recovery::{RecoveredFetch, RecoveryOptions};
    pub use crate::replication::{ReplicationAdvice, ReplicationManager, ReplicationStrategy};
    pub use crate::tuning::{Observation, WeightTuner};
    pub use datagrid_gridftp::retry::RetryPolicy;
    pub use datagrid_obs::{
        CandidateAudit, Event, MetricsRegistry, Recorder, SelectionAuditLog, SelectionDecision,
    };
    pub use datagrid_simnet::fault::{FaultKind, FaultPlan};
}
