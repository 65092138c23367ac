//! # datagrid-sysmon
//!
//! Host resource simulation and monitoring services for the Data Grid
//! reproduction:
//!
//! * [`host`] — hardware specifications ([`host::HostSpec`]) and simulated
//!   hosts ([`host::SimHost`]) whose CPU and disk utilisation evolve as
//!   stochastic processes ([`load`], [`disk`]),
//! * [`sysstat`] — `sar`/`iostat`-style samplers over host histories (the
//!   paper measures I/O state with the sysstat utilities),
//! * [`nws`] — a reimplementation of the Network Weather Service
//!   forecaster battery with dynamic predictor selection (the paper uses
//!   NWS for bandwidth measurement and prediction),
//! * [`mds`] — a Globus MDS-style information directory (the paper reads
//!   CPU state through MDS).
//!
//! Everything is deterministic given seeds, like the rest of the stack.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::dbg_macro,
        clippy::float_cmp,
        clippy::wildcard_enum_match_arm,
    )
)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod disk;
pub mod host;
pub mod load;
pub mod mds;
pub mod nws;
pub mod sysstat;

pub use host::{HostId, HostSpec, SimHost};
pub use load::{LoadModel, LoadProcess};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::disk::DiskSpec;
    pub use crate::host::{HostId, HostSample, HostSpec, SimHost};
    pub use crate::load::{LoadModel, LoadProcess};
    pub use crate::mds::MdsDirectory;
    pub use crate::nws::forecast::{Forecaster, MetaForecaster};
    pub use crate::nws::sensor::BandwidthSensor;
    pub use crate::nws::NwsRegistry;
}
