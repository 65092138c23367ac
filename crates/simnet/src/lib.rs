//! # datagrid-simnet
//!
//! A deterministic, discrete-event, fluid-flow network simulator.
//!
//! This crate is the bottom layer of the PaCT 2005 Data Grid replica
//! selection reproduction. The original paper measured file transfers on a
//! physical three-cluster testbed connected by Taiwanese academic WAN links;
//! this crate replaces that hardware with a simulation that preserves the
//! mechanisms the paper exercises:
//!
//! * links with finite capacity and propagation latency ([`topology`]),
//! * TCP streams whose throughput is limited by the receive window and by
//!   loss (the Mathis bound) as well as by fair sharing ([`tcp`]),
//! * **max-min fair** bandwidth allocation among concurrent flows
//!   ([`flow`]),
//! * dynamic background traffic that makes available bandwidth fluctuate
//!   ([`background`]),
//! * an event-driven engine with timers and flow-completion notifications
//!   ([`engine`]).
//!
//! Everything is deterministic: all randomness flows from [`rng::SimRng`]
//! seeds, and simulated time ([`time::SimTime`]) is integer nanoseconds.
//!
//! ## Example
//!
//! ```
//! use datagrid_simnet::prelude::*;
//!
//! let mut topo = Topology::new();
//! let a = topo.add_node("a");
//! let b = topo.add_node("b");
//! topo.add_duplex_link(a, b, LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_millis(5)));
//!
//! let mut sim = NetSim::new(topo, 42);
//! let flow = sim.start_flow(FlowSpec::new(a, b, 1_000_000));
//! let event = sim.next_event().expect("one flow is active");
//! match event.kind {
//!     EventKind::FlowCompleted(done) => assert_eq!(done.id, flow),
//!     other => panic!("unexpected event {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod background;
pub mod engine;
pub mod event;
pub mod fault;
pub mod flow;
pub mod rng;
pub mod stats;
pub mod tcp;
pub mod time;
pub mod topology;
pub mod trace;
pub mod verify;

pub use engine::{
    EventKind, FaultNotice, FlowCompletion, FlowId, FlowSpec, FlowTag, NetSim, SimEvent, SolverMode,
};
pub use fault::{FaultKind, FaultPlan, ScheduledFault};
pub use time::{SimDuration, SimTime};
pub use topology::{Bandwidth, LinkId, LinkSpec, NodeId, Topology};
pub use verify::{Certificate, TransitionCertificate, Violation};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::background::{BackgroundProfile, BackgroundTraffic};
    pub use crate::engine::{
        EngineStats, EventKind, FaultNotice, FlowCompletion, FlowId, FlowSpec, FlowTag, NetSim,
        SimEvent, SolverMode,
    };
    pub use crate::fault::{FaultKind, FaultPlan, ScheduledFault};
    pub use crate::rng::SimRng;
    pub use crate::stats::{OnlineStats, TimeWeightedMean};
    pub use crate::tcp::TcpParams;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{Bandwidth, LinkId, LinkSpec, NodeId, Topology};
    pub use crate::trace::{LinkTrace, NetworkTrace};
    pub use crate::verify::{Certificate, TransitionCertificate, Violation};
}
