//! Data Grid error types.

use std::error::Error;
use std::fmt;

use datagrid_catalog::CatalogError;
use datagrid_gridftp::TransferError;

/// Errors surfaced by the Data Grid orchestrator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GridError {
    /// The replica catalog rejected an operation.
    Catalog(CatalogError),
    /// A transfer could not be planned or executed.
    Transfer(TransferError),
    /// The named host is not part of this grid.
    UnknownHost {
        /// The unknown host name.
        name: String,
    },
    /// The logical file has no registered replicas to fetch from.
    NoReplicas {
        /// The logical file name.
        lfn: String,
    },
    /// A replica points at a host that runs no storage service.
    ReplicaOffGrid {
        /// The physical location in question.
        location: String,
    },
    /// Every candidate replica was tried and abandoned; the fetch cannot
    /// complete until a fault clears or a new replica appears.
    AllReplicasFailed {
        /// The logical file name.
        lfn: String,
        /// Replicas abandoned after their retries were exhausted.
        failed: Vec<String>,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::Catalog(e) => write!(f, "catalog: {e}"),
            GridError::Transfer(e) => write!(f, "transfer: {e}"),
            GridError::UnknownHost { name } => write!(f, "unknown grid host {name:?}"),
            GridError::NoReplicas { lfn } => {
                write!(f, "logical file {lfn:?} has no registered replicas")
            }
            GridError::ReplicaOffGrid { location } => {
                write!(f, "replica location {location} is not on any grid host")
            }
            GridError::AllReplicasFailed { lfn, failed } => {
                write!(
                    f,
                    "every replica of {lfn:?} failed (abandoned: {})",
                    failed.join(", ")
                )
            }
        }
    }
}

impl Error for GridError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GridError::Catalog(e) => Some(e),
            GridError::Transfer(e) => Some(e),
            GridError::UnknownHost { .. }
            | GridError::NoReplicas { .. }
            | GridError::ReplicaOffGrid { .. }
            | GridError::AllReplicasFailed { .. } => None,
        }
    }
}

impl From<CatalogError> for GridError {
    fn from(e: CatalogError) -> Self {
        GridError::Catalog(e)
    }
}

impl From<TransferError> for GridError {
    fn from(e: TransferError) -> Self {
        GridError::Transfer(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = GridError::UnknownHost {
            name: "mars".into(),
        };
        assert!(e.to_string().contains("mars"));
        assert!(e.source().is_none());
        let e: GridError = CatalogError::UnknownFile { name: "f".into() }.into();
        assert!(e.source().is_some());
        let e: GridError = TransferError::InvalidRequest { reason: "x".into() }.into();
        assert!(e.to_string().starts_with("transfer:"));
        let e = GridError::AllReplicasFailed {
            lfn: "file-a".into(),
            failed: vec!["hit0".into(), "lz02".into()],
        };
        assert!(e.to_string().contains("hit0, lz02"));
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<GridError>();
    }
}
