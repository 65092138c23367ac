//! Host-time benchmark of the datagrid simulator.
//!
//! Four workloads ([`workload::Workload`]) are built from a seed and run
//! against the release build of the repository's crates. Time is taken
//! from outside: around the benchmark's own calls into each crate's
//! public functions ([`trace`]). `README.md` in this directory documents
//! the workloads, the metrics and what each one explains.

#![forbid(unsafe_code)]

pub mod trace;
pub mod workload;
