//! Transfer error types.

use std::error::Error;
use std::fmt;

/// Errors raised when planning or executing a transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransferError {
    /// The request parameters are inconsistent.
    InvalidRequest {
        /// What is wrong.
        reason: String,
    },
    /// Source and destination are not connected in the topology.
    Unroutable {
        /// Source node name or id rendering.
        src: String,
        /// Destination node name or id rendering.
        dst: String,
    },
    /// The requested byte range exceeds the file.
    RangeOutOfBounds {
        /// Requested start offset.
        offset: u64,
        /// Requested length.
        length: u64,
        /// Actual file size.
        file_size: u64,
    },
    /// A connection drop reset the transfer's data flows mid-transfer and
    /// the driver, which runs no stall watchdog, gave the session up.
    ConnectionDropped {
        /// Payload bytes fully delivered before the drop.
        delivered_payload: u64,
    },
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferError::InvalidRequest { reason } => {
                write!(f, "invalid transfer request: {reason}")
            }
            TransferError::Unroutable { src, dst } => {
                write!(f, "no network route from {src} to {dst}")
            }
            TransferError::RangeOutOfBounds {
                offset,
                length,
                file_size,
            } => write!(
                f,
                "partial range {offset}+{length} exceeds file size {file_size}"
            ),
            TransferError::ConnectionDropped { delivered_payload } => write!(
                f,
                "connection dropped after {delivered_payload} payload bytes"
            ),
        }
    }
}

impl Error for TransferError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TransferError::Unroutable {
            src: "alpha1".into(),
            dst: "mars".into(),
        };
        assert_eq!(e.to_string(), "no network route from alpha1 to mars");
        let e = TransferError::RangeOutOfBounds {
            offset: 10,
            length: 20,
            file_size: 15,
        };
        assert!(e.to_string().contains("10+20"));
    }

    #[test]
    fn is_send_sync_error() {
        fn check<T: Error + Send + Sync + 'static>() {}
        check::<TransferError>();
    }
}
