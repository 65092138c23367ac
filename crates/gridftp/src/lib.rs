//! # datagrid-gridftp
//!
//! Protocol-level simulation of **FTP** and **GridFTP** data transfers,
//! faithful to the behaviours the paper measures:
//!
//! * control-channel command exchanges costed per round trip ([`session`]),
//! * GSI mutual authentication (round trips + crypto CPU time, [`gsi`]),
//! * stream mode vs. **extended block MODE E** with its 17-byte block
//!   headers and out-of-order delivery, which is what enables parallel TCP
//!   streams ([`mode`]),
//! * parallel, striped, partial and third-party transfers
//!   ([`transfer`], [`executor`]),
//! * endpoint rate limits from disk availability and CPU headroom
//!   ([`executor::TransferEndpoint`]).
//!
//! The executor is an event-driven state machine over a
//! [`NetSim`](datagrid_simnet::NetSim), so transfers coexist with
//! monitoring probes and other traffic; [`executor::run_transfer`] is the
//! convenience wrapper when a transfer is the only foreground activity.
//!
//! A finished session's [`TransferOutcome`] carries its phase timeline
//! (control — authentication and handshake —, ramp-up, data,
//! completion). The crate records nothing itself: the grid orchestrator
//! turns each outcome into its `span.*` events, labelling the protocol
//! with [`transfer::protocol_label`].
//!
//! ## Example
//!
//! ```
//! use datagrid_gridftp::prelude::*;
//! use datagrid_simnet::prelude::*;
//!
//! let mut topo = Topology::new();
//! let a = topo.add_node("alpha01");
//! let b = topo.add_node("gridhit3");
//! topo.add_duplex_link(a, b, LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_millis(5)));
//! let mut sim = NetSim::new(topo, 1);
//!
//! let req = TransferRequest::new(256 << 20)
//!     .with_protocol(Protocol::GridFtp)
//!     .with_parallelism(4);
//! let src = TransferEndpoint::unconstrained(a);
//! let dst = TransferEndpoint::unconstrained(b);
//! let outcome = run_transfer(&mut sim, &req, &src, &dst, &TcpParams::default()).unwrap();
//! assert!(outcome.duration().as_secs_f64() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod executor;
pub mod gsi;
pub mod mode;
pub mod retry;
pub mod session;
pub mod transfer;

pub use error::TransferError;
pub use executor::{run_transfer, TransferEndpoint, TransferFailure, TransferSession};
pub use mode::TransferMode;
pub use retry::RetryPolicy;
pub use transfer::{DataChannelProtection, Protocol, TransferOutcome, TransferRequest};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::error::TransferError;
    pub use crate::executor::{
        run_transfer, SessionStatus, TransferEndpoint, TransferFailure, TransferSession,
    };
    pub use crate::gsi::GsiConfig;
    pub use crate::mode::TransferMode;
    pub use crate::retry::RetryPolicy;
    pub use crate::session::{ControlScript, ControlStep};
    pub use crate::transfer::{
        protocol_label, DataChannelProtection, Protocol, TransferOutcome, TransferRequest,
    };
}
