//! # datagrid-catalog
//!
//! A Globus-style **replica catalog**.
//!
//! The paper's replica selection scenario (its Fig. 1) starts with the
//! application passing a *logical file name* to the replica catalog server,
//! which returns the physical locations of all registered copies. This
//! crate provides that service:
//!
//! * [`name`] — validated logical and physical file names,
//! * [`entry`] — logical file metadata,
//! * [`collection`] — logical collections grouping related files (the
//!   structure of the LDAP-based Globus catalog),
//! * [`catalog`] — the catalog itself: register, replicate, look up.
//!
//! The crate is deliberately free of simulation dependencies so it can be
//! reused and tested standalone.

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

pub mod attributes;
pub mod catalog;
pub mod collection;
pub mod entry;
pub mod error;
pub mod name;

pub use catalog::ReplicaCatalog;
pub use error::CatalogError;
pub use name::{LogicalFileName, PhysicalFileName};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::attributes::{AttributeKey, AttributeSet};
    pub use crate::catalog::{CatalogStats, FileRecord, ReplicaCatalog};
    pub use crate::collection::LogicalCollection;
    pub use crate::entry::LogicalFileEntry;
    pub use crate::error::CatalogError;
    pub use crate::name::{LogicalFileName, PhysicalFileName};
}
