//! Replica management: creating and deleting physical copies while keeping
//! the catalog consistent.
//!
//! The Globus replica management service combines catalog bookkeeping with
//! GridFTP data movement. [`ReplicaManager`] does the bookkeeping half and
//! delegates the bytes to a [`ReplicaTransport`], which the full stack
//! implements with the simulated GridFTP executor (and tests implement
//! with an in-memory mock).

use std::error::Error;
use std::fmt;

use crate::catalog::ReplicaCatalog;
use crate::error::CatalogError;
use crate::name::{LogicalFileName, PhysicalFileName};

/// Result of a completed transport operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportReceipt {
    /// Bytes moved.
    pub bytes: u64,
}

/// A transport failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError {
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transport failed: {}", self.reason)
    }
}

impl Error for TransportError {}

/// The data movement half of replica management. The full stack wires this
/// to GridFTP third-party transfers; tests use in-memory mocks.
pub trait ReplicaTransport {
    /// Copies `bytes` from the source replica to the destination location.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] when the copy cannot be carried out.
    fn copy(
        &mut self,
        src: &PhysicalFileName,
        dst: &PhysicalFileName,
        bytes: u64,
    ) -> Result<TransportReceipt, TransportError>;

    /// Deletes the physical file behind a replica location.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] when the deletion cannot be carried out.
    fn delete(&mut self, target: &PhysicalFileName) -> Result<(), TransportError>;
}

/// Errors from replica management operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ManagerError {
    /// The catalog rejected the bookkeeping side.
    Catalog(CatalogError),
    /// The transport rejected the data movement side.
    Transport(TransportError),
}

impl fmt::Display for ManagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManagerError::Catalog(e) => write!(f, "catalog: {e}"),
            ManagerError::Transport(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ManagerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ManagerError::Catalog(e) => Some(e),
            ManagerError::Transport(e) => Some(e),
        }
    }
}

impl From<CatalogError> for ManagerError {
    fn from(e: CatalogError) -> Self {
        ManagerError::Catalog(e)
    }
}

impl From<TransportError> for ManagerError {
    fn from(e: TransportError) -> Self {
        ManagerError::Transport(e)
    }
}

/// Replica manager: catalog-consistent create/delete of physical copies.
///
/// ```
/// use datagrid_catalog::prelude::*;
///
/// #[derive(Default)]
/// struct MemTransport;
/// impl ReplicaTransport for MemTransport {
///     fn copy(&mut self, _: &PhysicalFileName, _: &PhysicalFileName, bytes: u64)
///         -> Result<TransportReceipt, TransportError> {
///         Ok(TransportReceipt { bytes })
///     }
///     fn delete(&mut self, _: &PhysicalFileName) -> Result<(), TransportError> {
///         Ok(())
///     }
/// }
///
/// let mut mgr = ReplicaManager::new();
/// mgr.catalog_mut().register_logical("file-a".parse().unwrap(), 100).unwrap();
/// mgr.catalog_mut().add_replica(
///     &"file-a".parse().unwrap(),
///     "gsiftp://alpha4/d/file-a".parse().unwrap(),
/// ).unwrap();
/// let mut t = MemTransport;
/// mgr.create_replica(&mut t, &"file-a".parse().unwrap(),
///     "gsiftp://hit0/d/file-a".parse().unwrap()).unwrap();
/// assert_eq!(mgr.catalog().replicas(&"file-a".parse().unwrap()).unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplicaManager {
    catalog: ReplicaCatalog,
}

impl ReplicaManager {
    /// Creates a manager with an empty catalog.
    pub fn new() -> Self {
        ReplicaManager::default()
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &ReplicaCatalog {
        &self.catalog
    }

    /// Mutable access to the underlying catalog.
    pub fn catalog_mut(&mut self) -> &mut ReplicaCatalog {
        &mut self.catalog
    }

    /// Creates a new replica of `name` at `destination` by copying from the
    /// first registered source, then registers it. Nothing is registered if
    /// the copy fails.
    ///
    /// # Errors
    ///
    /// Catalog errors (unknown file, duplicate destination, no source
    /// replica) or transport errors.
    pub fn create_replica<T: ReplicaTransport>(
        &mut self,
        transport: &mut T,
        name: &LogicalFileName,
        destination: PhysicalFileName,
    ) -> Result<TransportReceipt, ManagerError> {
        let (src, bytes) = {
            let rec = self
                .catalog
                .lookup(name)
                .ok_or_else(|| CatalogError::UnknownFile {
                    name: name.to_string(),
                })?;
            if rec.locations().contains(&destination) {
                return Err(CatalogError::DuplicateReplica {
                    name: name.to_string(),
                    location: destination.to_string(),
                }
                .into());
            }
            let src = rec
                .locations()
                .first()
                .ok_or_else(|| CatalogError::UnknownReplica {
                    name: name.to_string(),
                    location: "<no source replica>".to_string(),
                })?
                .clone();
            (src, rec.entry().size_bytes())
        };
        let receipt = transport.copy(&src, &destination, bytes)?;
        self.catalog.add_replica(name, destination)?;
        Ok(receipt)
    }

    /// Deletes the replica at `location`: catalog first (so the safety rule
    /// against removing the last copy applies before any data is touched),
    /// then the physical file. If the physical deletion fails the catalog
    /// registration is restored.
    ///
    /// # Errors
    ///
    /// Catalog errors or transport errors.
    pub fn delete_replica<T: ReplicaTransport>(
        &mut self,
        transport: &mut T,
        name: &LogicalFileName,
        location: &PhysicalFileName,
    ) -> Result<(), ManagerError> {
        self.catalog.remove_replica(name, location)?;
        if let Err(e) = transport.delete(location) {
            self.catalog
                .add_replica(name, location.clone())
                .expect("restoring a just-removed replica cannot fail");
            return Err(e.into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-memory transport with scriptable failures.
    #[derive(Debug, Default)]
    struct MockTransport {
        copies: Vec<(String, String, u64)>,
        deletes: Vec<String>,
        fail_copy: bool,
        fail_delete: bool,
    }

    impl ReplicaTransport for MockTransport {
        fn copy(
            &mut self,
            src: &PhysicalFileName,
            dst: &PhysicalFileName,
            bytes: u64,
        ) -> Result<TransportReceipt, TransportError> {
            if self.fail_copy {
                return Err(TransportError {
                    reason: "copy refused".into(),
                });
            }
            self.copies.push((src.to_string(), dst.to_string(), bytes));
            Ok(TransportReceipt { bytes })
        }

        fn delete(&mut self, target: &PhysicalFileName) -> Result<(), TransportError> {
            if self.fail_delete {
                return Err(TransportError {
                    reason: "delete refused".into(),
                });
            }
            self.deletes.push(target.to_string());
            Ok(())
        }
    }

    fn lfn(s: &str) -> LogicalFileName {
        s.parse().unwrap()
    }

    fn pfn(s: &str) -> PhysicalFileName {
        s.parse().unwrap()
    }

    fn manager() -> ReplicaManager {
        let mut m = ReplicaManager::new();
        m.catalog_mut()
            .register_logical(lfn("file-a"), 1000)
            .unwrap();
        m.catalog_mut()
            .add_replica(&lfn("file-a"), pfn("gsiftp://alpha4/d/f"))
            .unwrap();
        m
    }

    #[test]
    fn create_copies_from_first_source() {
        let mut m = manager();
        let mut t = MockTransport::default();
        let receipt = m
            .create_replica(&mut t, &lfn("file-a"), pfn("gsiftp://hit0/d/f"))
            .unwrap();
        assert_eq!(receipt.bytes, 1000);
        assert_eq!(t.copies.len(), 1);
        assert_eq!(t.copies[0].0, "gsiftp://alpha4/d/f");
        assert_eq!(m.catalog().replicas(&lfn("file-a")).unwrap().len(), 2);
    }

    #[test]
    fn failed_copy_registers_nothing() {
        let mut m = manager();
        let mut t = MockTransport {
            fail_copy: true,
            ..MockTransport::default()
        };
        let err = m
            .create_replica(&mut t, &lfn("file-a"), pfn("gsiftp://hit0/d/f"))
            .unwrap_err();
        assert!(matches!(err, ManagerError::Transport(_)));
        assert_eq!(m.catalog().replicas(&lfn("file-a")).unwrap().len(), 1);
    }

    #[test]
    fn create_with_no_source_fails() {
        let mut m = ReplicaManager::new();
        m.catalog_mut().register_logical(lfn("empty"), 10).unwrap();
        let mut t = MockTransport::default();
        let err = m
            .create_replica(&mut t, &lfn("empty"), pfn("gsiftp://h/p"))
            .unwrap_err();
        assert!(matches!(
            err,
            ManagerError::Catalog(CatalogError::UnknownReplica { .. })
        ));
    }

    #[test]
    fn create_duplicate_destination_fails_without_copying() {
        let mut m = manager();
        let mut t = MockTransport::default();
        let err = m
            .create_replica(&mut t, &lfn("file-a"), pfn("gsiftp://alpha4/d/f"))
            .unwrap_err();
        assert!(matches!(
            err,
            ManagerError::Catalog(CatalogError::DuplicateReplica { .. })
        ));
        assert!(t.copies.is_empty());
    }

    #[test]
    fn delete_removes_catalog_and_data() {
        let mut m = manager();
        let mut t = MockTransport::default();
        m.create_replica(&mut t, &lfn("file-a"), pfn("gsiftp://hit0/d/f"))
            .unwrap();
        m.delete_replica(&mut t, &lfn("file-a"), &pfn("gsiftp://hit0/d/f"))
            .unwrap();
        assert_eq!(t.deletes, vec!["gsiftp://hit0/d/f".to_string()]);
        assert_eq!(m.catalog().replicas(&lfn("file-a")).unwrap().len(), 1);
    }

    #[test]
    fn delete_last_replica_blocked_before_touching_data() {
        let mut m = manager();
        let mut t = MockTransport::default();
        let err = m
            .delete_replica(&mut t, &lfn("file-a"), &pfn("gsiftp://alpha4/d/f"))
            .unwrap_err();
        assert!(matches!(
            err,
            ManagerError::Catalog(CatalogError::LastReplica { .. })
        ));
        assert!(t.deletes.is_empty());
    }

    #[test]
    fn failed_physical_delete_restores_registration() {
        let mut m = manager();
        let mut ok = MockTransport::default();
        m.create_replica(&mut ok, &lfn("file-a"), pfn("gsiftp://hit0/d/f"))
            .unwrap();
        let mut t = MockTransport {
            fail_delete: true,
            ..MockTransport::default()
        };
        let err = m
            .delete_replica(&mut t, &lfn("file-a"), &pfn("gsiftp://hit0/d/f"))
            .unwrap_err();
        assert!(matches!(err, ManagerError::Transport(_)));
        assert_eq!(m.catalog().replicas(&lfn("file-a")).unwrap().len(), 2);
    }

    #[test]
    fn manager_error_sources_chain() {
        let e = ManagerError::Transport(TransportError { reason: "x".into() });
        assert!(std::error::Error::source(&e).is_some());
    }
}
