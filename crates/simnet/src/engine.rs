//! The discrete-event network simulation engine.
//!
//! [`NetSim`] owns a [`Topology`], the set of active flows, timers and
//! background traffic, and advances simulated time event by event. Drivers
//! (the GridFTP executor, the Data Grid monitor loop) interact through a
//! poll-style API: start flows and timers, then repeatedly call
//! [`NetSim::next_event`] and react.
//!
//! Rates follow the fluid max-min model from [`crate::flow`]. The engine is
//! built to scale to tens of thousands of concurrent flows:
//!
//! * **Per-link class indexes.** Flows with one route and one cap form a
//!   class; every link knows the classes crossing it, every class lists its
//!   members, and every flow caches its route's link set (shared with the
//!   routing table via `Arc`), so "who shares a link with whom" is an index
//!   lookup, not a scan, and a component walk visits classes, not flows.
//! * **Incremental re-solves.** An arrival, completion, abort, cap change or
//!   fault transition re-solves only the connected component of the
//!   flow/link graph it perturbs (see [`SolverMode`]). Max-min fairness
//!   decomposes exactly across components — flows that share no links
//!   (directly or transitively) cannot affect each other's rates.
//! * **Uncongested fast path.** While per-link cap sums show no link can
//!   saturate, every flow runs at its cap: a mutation re-rates just the
//!   flows it touched, with no component walk and no fill.
//! * **Lazy per-flow settling.** Byte accounting is advanced per flow when
//!   its rate is about to change (or its progress is read), not for every
//!   flow on every event. A flow whose rate is untouched by an event keeps
//!   its scheduled completion; nothing is recomputed for it.
//! * **Zero steady-state allocation.** All solver and component-walk
//!   buffers are owned scratch, reused across events.

#![cfg_attr(
    not(test),
    expect(
        clippy::expect_used,
        reason = "slab/index invariants: every expect names a liveness guarantee the engine itself maintains"
    )
)]
#![cfg_attr(
    not(test),
    expect(
        clippy::panic,
        reason = "documented # Panics contracts (rtt, start_flow on unroutable pairs) and the deliberate certificate-enforcement panic"
    )
)]
#![expect(
    clippy::disallowed_types,
    reason = "keyed lookups only: `ids` and `id_slots` are never iterated, so their order reaches no output"
)]

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::Arc;

use crate::background::BackgroundProfile;
use crate::event::{EventQueue, KeyOf};
use crate::fault::{FaultKind, FaultPlan, ScheduledFault};
use crate::flow::MaxMinSolver;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::{Bandwidth, LinkId, NodeId, RoutingTable, Topology};
use crate::verify::{Certificate, TransitionCertificate, Violation, ABS_TOL_BPS, REL_TOL};

/// A slab burst below this peak never triggers the automatic low-water
/// scratch compaction — small simulations keep their buffers.
const AUTO_SHRINK_MIN_HIGH_WATER: usize = 128;

/// Relative headroom below capacity that keeps a link out of reach of the
/// progressive fill's saturation test (see [`LinkLoad`]).
const UNCONGESTED_MARGIN: f64 = 1e-6;

/// Identifier of a flow started on a [`NetSim`]. Unique for the lifetime of
/// the simulation (never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u64);

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// What kind of traffic a flow carries. Background flows are internal to
/// the engine and never produce public events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FlowTag {
    /// A foreground transfer started by a driver.
    #[default]
    User,
    /// A small measurement flow (NWS-style bandwidth probe).
    Probe,
    /// Engine-generated cross traffic.
    Background,
}

/// A request to start a flow.
///
/// ```
/// use datagrid_simnet::prelude::*;
///
/// # let mut topo = Topology::new();
/// # let a = topo.add_node("a");
/// # let b = topo.add_node("b");
/// let spec = FlowSpec::new(a, b, 1 << 20)
///     .with_cap(Bandwidth::from_mbps(50.0))
///     .with_tag(FlowTag::Probe);
/// assert_eq!(spec.bytes, 1 << 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Per-flow rate ceiling (TCP window/loss bound, endpoint limits);
    /// `None` = limited only by the network.
    pub cap: Option<Bandwidth>,
    /// Traffic class.
    pub tag: FlowTag,
    /// Caller token, echoed in the flow's [`FlowCompletion`] the way a
    /// timer's token is echoed in [`EventKind::TimerFired`] (default 0).
    pub token: u64,
}

impl FlowSpec {
    /// Creates a user flow with no rate cap and token 0.
    pub fn new(src: NodeId, dst: NodeId, bytes: u64) -> Self {
        FlowSpec {
            src,
            dst,
            bytes,
            cap: None,
            tag: FlowTag::User,
            token: 0,
        }
    }

    /// Sets the per-flow rate ceiling.
    pub fn with_cap(mut self, cap: Bandwidth) -> Self {
        self.cap = Some(cap);
        self
    }

    /// Sets the traffic class.
    pub fn with_tag(mut self, tag: FlowTag) -> Self {
        self.tag = tag;
        self
    }

    /// Sets the caller token the completion carries.
    pub fn with_token(mut self, token: u64) -> Self {
        self.token = token;
        self
    }
}

/// Completion record for a finished flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowCompletion {
    /// The finished flow.
    pub id: FlowId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Bytes transferred.
    pub bytes: u64,
    /// When the flow started.
    pub started: SimTime,
    /// When the last byte arrived.
    pub finished: SimTime,
    /// Traffic class.
    pub tag: FlowTag,
    /// The caller token of the flow's [`FlowSpec`].
    pub token: u64,
}

impl FlowCompletion {
    /// Total transfer duration.
    pub fn duration(&self) -> SimDuration {
        self.finished - self.started
    }

    /// Average achieved throughput.
    pub fn avg_throughput(&self) -> Bandwidth {
        let secs = self.duration().as_secs_f64();
        if secs <= 0.0 {
            Bandwidth::ZERO
        } else {
            Bandwidth::from_bps(self.bytes as f64 * 8.0 / secs)
        }
    }
}

/// A public simulation event.
#[derive(Debug, Clone, PartialEq)]
pub struct SimEvent {
    /// When the event occurred.
    pub time: SimTime,
    /// What happened.
    pub kind: EventKind,
}

/// The kinds of public simulation events.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A user or probe flow delivered its last byte.
    FlowCompleted(FlowCompletion),
    /// A timer scheduled with [`NetSim::schedule_timer`] fired; carries the
    /// caller's token.
    TimerFired(u64),
    /// An injected fault started or cleared (see
    /// [`NetSim::install_fault_plan`]).
    FaultChanged(FaultNotice),
}

/// Public notification of a fault transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultNotice {
    /// Index of the fault in installation order (unique per simulation).
    pub index: usize,
    /// What the fault does.
    pub kind: FaultKind,
    /// `true` when the fault just started, `false` when it cleared.
    /// Instant faults (connection drops) only ever report `true`.
    pub active: bool,
}

/// Progress snapshot of an active flow (see [`NetSim::abort_flow`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowProgress {
    /// Bytes already delivered.
    pub bytes_done: f64,
    /// Bytes still outstanding.
    pub bytes_remaining: f64,
    /// Last solved rate (inside a [`NetSim::batched`] scope, the rate
    /// before the scope's deferred solve: zero for a flow started in the
    /// scope). An uncapped node-local flow reads 1e15 bps.
    pub rate: Bandwidth,
}

/// How the engine recomputes rates after an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMode {
    /// Re-solve only the connected component of flows/links perturbed by
    /// the event. Exact: max-min fairness decomposes across components
    /// (rates can differ from a global solve only at floating-point ulp
    /// scale). The default.
    #[default]
    Incremental,
    /// Settle every flow and re-run progressive filling over the whole
    /// grid on every event — the pre-index behaviour. Kept as the
    /// benchmark baseline and for differential testing.
    Full,
}

#[derive(Debug, Clone)]
struct FlowState {
    id: FlowId,
    src: NodeId,
    dst: NodeId,
    /// Route links, shared with the routing table (O(1) clone).
    route: Arc<[LinkId]>,
    total_bytes: u64,
    /// Bytes outstanding as of `last_update` (not "now": settling is lazy).
    remaining: f64,
    cap_bps: f64,
    /// Interned `(src, dst, cap)` class (see [`FlowClasses`]).
    class: u32,
    /// Allocated rate; `NAN` until the first solve touches the flow, which
    /// guarantees the first solve always observes a rate change.
    rate_bps: f64,
    started: SimTime,
    /// When `remaining` was last made exact.
    last_update: SimTime,
    tag: FlowTag,
    token: u64,
    /// Started through [`NetSim::start_flow`], so `id_slots` maps its id;
    /// the engine's own background arrivals are never named by a caller
    /// and have no entry.
    keyed: bool,
}

/// Queue payloads. A `Completion` is filed under its flow's slot (see
/// [`CompletionKey`]), so each live flow has at most one pending.
#[derive(Debug, Clone, Copy)]
enum Internal {
    Completion { slot: u32 },
    Timer { token: u64 },
    BackgroundArrival { profile: usize },
    FaultTransition { index: usize, start: bool },
}

/// Files a `Completion` under its flow's slot; every other payload is
/// unkeyed.
#[derive(Debug, Clone, Copy)]
struct CompletionKey;

impl KeyOf<Internal> for CompletionKey {
    fn key_of(payload: &Internal) -> Option<usize> {
        match *payload {
            Internal::Completion { slot } => Some(slot as usize),
            Internal::Timer { .. }
            | Internal::BackgroundArrival { .. }
            | Internal::FaultTransition { .. } => None,
        }
    }
}

#[derive(Debug, Clone)]
struct FaultRecord {
    fault: ScheduledFault,
    active: bool,
}

/// Interning key of a flow class: the endpoints fix the route, plus the
/// cap's bit pattern.
type ClassKey = (NodeId, NodeId, u64);

/// End of a member list.
const NO_SLOT: u32 = u32::MAX;

/// Interned flow classes and the per-link class index. Flows with the
/// same endpoints (hence the same route) and the same cap always receive
/// the same max-min rate, so the progressive fill runs once per class,
/// weighted by its member count, and the component walk reaches a class
/// (all of its members at once) through the links of its route.
///
/// Keyed on the node pair, not on the route `Arc`'s address, so class
/// identity never depends on the allocator. Classes are reference-counted:
/// the last member leaving releases its class, and released ids are reused
/// before the table grows, so the table holds only live classes.
#[derive(Debug, Clone, Default)]
struct FlowClasses {
    /// Key -> class id. Looked up only, never iterated. Fixed hash keys,
    /// as in `NetSim::id_slots`: with a per-process random seed the
    /// table's capacity after churn, and with it
    /// [`NetSim::scratch_footprint`], would differ from one process to
    /// the next.
    ids: HashMap<ClassKey, u32, BuildHasherDefault<DefaultHasher>>,
    /// Released ids, reused before new ones are minted.
    free: Vec<u32>,
    /// Per class id: its live members (0 once released). Its length is
    /// the exclusive bound of the ids minted so far.
    members: Vec<u32>,
    /// Per class id: its first member's slot.
    head: Vec<u32>,
    /// Per flow slot: the next and previous member of its class, in a
    /// circular list (the head's `prev` is the last member).
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Per link: the live classes whose route crosses it.
    link_classes: Vec<Vec<u32>>,
}

impl FlowClasses {
    /// Adds flow `f`, in `slot`, to the class of its endpoints and cap as
    /// its last member, interning the class on first use; returns the
    /// class id.
    fn join(&mut self, f: &FlowState, slot: u32) -> u32 {
        let FlowClasses {
            ids,
            free,
            members,
            head,
            ..
        } = self;
        let class = *ids
            .entry((f.src, f.dst, f.cap_bps.to_bits()))
            .or_insert_with(|| {
                free.pop().unwrap_or_else(|| {
                    let id = u32::try_from(members.len()).expect("too many flow classes");
                    members.push(0);
                    head.push(NO_SLOT);
                    id
                })
            });
        let c = class as usize;
        let s = slot as usize;
        if self.members[c] == 0 {
            self.head[c] = slot;
            self.prev[s] = slot;
            for &l in f.route.iter() {
                self.link_classes[l.index()].push(class);
            }
        }
        // Splice in between the last member and the first.
        let first = self.head[c];
        let last = self.prev[first as usize];
        (self.next[s], self.prev[s]) = (first, last);
        self.next[last as usize] = slot;
        self.prev[first as usize] = slot;
        self.members[c] += 1;
        class
    }

    /// Removes the flow in `slot` from its class, releasing the class
    /// (from the table and from its route's links) when its last member
    /// leaves.
    fn leave(&mut self, f: &FlowState, slot: u32) {
        let c = f.class as usize;
        let s = slot as usize;
        self.members[c] -= 1;
        if self.members[c] == 0 {
            self.ids.remove(&(f.src, f.dst, f.cap_bps.to_bits()));
            self.free.push(f.class);
            for &l in f.route.iter() {
                let on_link = &mut self.link_classes[l.index()];
                let pos = on_link
                    .iter()
                    .position(|&k| k == f.class)
                    .expect("class indexed on its route links");
                on_link.swap_remove(pos);
            }
            self.head[c] = NO_SLOT;
            return;
        }
        let (next, prev) = (self.next[s], self.prev[s]);
        self.next[prev as usize] = next;
        self.prev[next as usize] = prev;
        if self.head[c] == slot {
            self.head[c] = next;
        }
    }

    /// Sizes the member links for a slab of `slots` slots.
    fn reserve_slots(&mut self, slots: usize) {
        self.next.resize(slots, NO_SLOT);
        self.prev.resize(slots, NO_SLOT);
    }

    /// The live members of class `c`, first to last.
    fn members(&self, c: u32) -> impl Iterator<Item = u32> + Clone + '_ {
        let head = self.head[c as usize];
        let mut at = (head != NO_SLOT).then_some(head);
        std::iter::from_fn(move || {
            let s = at?;
            let next = self.next[s as usize];
            at = (next != head).then_some(next);
            Some(s)
        })
    }

    /// Class `c`'s first member, which supplies the class's route and cap.
    fn first<'f>(&self, c: u32, flows: &'f [Option<FlowState>]) -> &'f FlowState {
        flows[self.head[c as usize] as usize]
            .as_ref()
            .expect("a live class has a live first member")
    }

    /// Exclusive upper bound of the class ids in use.
    fn id_bound(&self) -> usize {
        self.members.len()
    }

    /// Live classes.
    #[cfg(test)]
    fn live(&self) -> usize {
        self.ids.len()
    }

    fn footprint(&self) -> usize {
        self.ids.capacity()
            + self.free.capacity()
            + self.members.capacity()
            + self.head.capacity()
            + self.next.capacity()
            + self.prev.capacity()
            + self.link_classes.iter().map(Vec::capacity).sum::<usize>()
    }

    /// Retires trailing released ids, trims the member links to `slots`
    /// slots and releases spare capacity; live ids never change.
    fn shrink(&mut self, slots: usize) {
        while self.members.last() == Some(&0) {
            self.members.pop();
        }
        let bound = self.members.len();
        self.free.retain(|&id| (id as usize) < bound);
        self.free.sort_unstable();
        self.head.truncate(bound);
        self.next.truncate(slots);
        self.prev.truncate(slots);
        self.ids.shrink_to_fit();
        self.free.shrink_to_fit();
        self.members.shrink_to_fit();
        self.head.shrink_to_fit();
        self.next.shrink_to_fit();
        self.prev.shrink_to_fit();
        for on_link in &mut self.link_classes {
            on_link.shrink_to_fit();
        }
    }
}

/// Reusable scratch for walking a connected component of the class/link
/// graph. Stamped mark arrays (generation counters) make `begin` O(1)
/// instead of clearing marks for every class and link.
#[derive(Debug, Clone, Default)]
struct CompScratch {
    class_stamp: Vec<u64>,
    link_stamp: Vec<u64>,
    stamp: u64,
    /// Classes in the component, in discovery order: the fill's entries.
    classes: Vec<u32>,
    /// Global link indices in the component, in discovery order.
    links: Vec<u32>,
    /// Full-mode solves only: every live slot, in slot order.
    slots: Vec<u32>,
    /// The classes and links the last `expand` started from.
    #[cfg(test)]
    seeds: (Vec<u32>, Vec<u32>),
}

impl CompScratch {
    /// Starts a new component walk over `classes` class ids and `links`
    /// links.
    fn begin(&mut self, classes: usize, links: usize) {
        self.stamp += 1;
        self.classes.clear();
        self.links.clear();
        self.ensure_classes(classes);
        if self.link_stamp.len() < links {
            self.link_stamp.resize(links, 0);
        }
    }

    /// Seeds the walk with a link (deduplicated).
    fn add_link(&mut self, link: LinkId) {
        let i = link.index();
        if self.link_stamp[i] != self.stamp {
            self.link_stamp[i] = self.stamp;
            self.links.push(link.0);
        }
    }

    /// Grows the class stamp array to cover `classes` ids without
    /// starting a new walk — used when a class is minted mid-cohort (an
    /// arrival or re-cap deferred into an already-open batch).
    fn ensure_classes(&mut self, classes: usize) {
        if self.class_stamp.len() < classes {
            self.class_stamp.resize(classes, 0);
        }
    }

    /// Seeds the walk with class `c` (deduplicated); its route links join
    /// the frontier.
    fn add_class(&mut self, c: u32, classes: &FlowClasses, flows: &[Option<FlowState>]) {
        let i = c as usize;
        if self.class_stamp[i] == self.stamp {
            return;
        }
        self.class_stamp[i] = self.stamp;
        self.classes.push(c);
        for &l in classes.first(c, flows).route.iter() {
            self.add_link(l);
        }
    }

    /// Whether the last walk reached class `c`: every member of a reached
    /// class is in the component.
    fn reached(&self, c: u32) -> bool {
        self.class_stamp.get(c as usize) == Some(&self.stamp)
    }

    /// Live flows in the walked component.
    fn member_count(&self, classes: &FlowClasses) -> usize {
        self.classes
            .iter()
            .map(|&c| classes.members[c as usize] as usize)
            .sum()
    }

    /// Element capacity currently pinned by the stamp arrays and
    /// worklists.
    fn footprint(&self) -> usize {
        self.class_stamp.capacity()
            + self.link_stamp.capacity()
            + self.classes.capacity()
            + self.links.capacity()
            + self.slots.capacity()
    }

    /// Trims the stamp arrays to the current `classes`/`links` extents
    /// and releases the worklists. The stamp counter is preserved, so
    /// marks for retained ids stay valid; `begin` regrows everything on
    /// demand.
    fn shrink(&mut self, classes: usize, links: usize) {
        self.class_stamp.truncate(classes);
        self.class_stamp.shrink_to_fit();
        self.link_stamp.truncate(links);
        self.link_stamp.shrink_to_fit();
        self.classes = Vec::new();
        self.links = Vec::new();
        self.slots = Vec::new();
    }

    /// Runs the fill over the walked component, one entry per class in
    /// discovery order, weighted by its members; `take_member_rate` of
    /// the entry's index then reads each member's rate, first to last.
    fn fill(
        &self,
        solver: &mut MaxMinSolver,
        classes: &FlowClasses,
        flows: &[Option<FlowState>],
        link_caps: &[f64],
    ) {
        solver.solve_with(
            self.classes.len(),
            |e| classes.first(self.classes[e], flows).route.as_ref(),
            |e| classes.first(self.classes[e], flows).cap_bps,
            |e| classes.members[self.classes[e] as usize] as usize,
            &self.links,
            link_caps,
        );
    }

    /// Breadth-first closure: every class crossing a reached link is
    /// added, and its route links extend the frontier, until fixpoint.
    fn expand(&mut self, classes: &FlowClasses, flows: &[Option<FlowState>]) {
        #[cfg(test)]
        {
            self.seeds = (self.classes.clone(), self.links.clone());
        }
        let mut head = 0;
        while head < self.links.len() {
            let l = self.links[head] as usize;
            head += 1;
            for &c in &classes.link_classes[l] {
                self.add_class(c, classes, flows);
            }
        }
    }
}

/// Pre-solve bit snapshot backing the transition certificate (see
/// [`crate::verify`], "Transition certificates"): one entry per live flow,
/// capturing the exact bit patterns the solve must either preserve
/// (out-of-component flows) or rewrite by exact re-integration (settled
/// flows). Reused across solves so validation stays allocation-free once
/// warm.
#[derive(Debug, Clone, Default)]
struct TransitionScratch {
    /// `(slot, rate bits, remaining bits, settle clock)` per live flow.
    entries: Vec<(u32, u64, u64, SimTime)>,
    /// Walk and fill of the uncongested-path oracle, kept apart so
    /// validation leaves [`NetSim::scratch_footprint`] untouched.
    comp: CompScratch,
    solver: MaxMinSolver,
}

/// What a link's flows could ask of it. The link is *tight* when it
/// carries a flow and their caps sum above `capacity·(1 −
/// UNCONGESTED_MARGIN)`, or one is uncapped, or its capacity is below
/// 1 bps; only a tight link can saturate in the fill (DESIGN.md §4d).
#[derive(Debug, Clone, Copy, Default)]
struct LinkLoad {
    /// Sum of the finite caps of the crossing flows; exactly `0.0` when
    /// the link carries none.
    cap_sum: f64,
    /// Crossing flows with an infinite cap.
    unbounded: i32,
    tight: bool,
}

/// Scratch for [`NetSim::available_bandwidth`] phantom-flow probes, kept in
/// a `RefCell` so probing stays `&self` (it is conceptually a read) while
/// still reusing buffers across calls.
#[derive(Debug, Clone, Default)]
struct ProbeScratch {
    comp: CompScratch,
    solver: MaxMinSolver,
}

/// Lifetime counters of one [`NetSim`] — how much work the engine has
/// done. Cheap to keep (a handful of integer bumps per event) and exported
/// by the observability layer as `simnet.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Internal events processed (timers, completions, background
    /// arrivals, fault edges). Every one is live: the queue keeps one
    /// completion per flow and withdraws it when the flow stalls or ends,
    /// so no superseded entry is ever popped.
    pub events_processed: u64,
    /// Timers delivered to the driver.
    pub timers_fired: u64,
    /// User/probe flows started.
    pub flows_started: u64,
    /// User/probe flows completed.
    pub flows_completed: u64,
    /// Background flows started by traffic profiles.
    pub background_flows_started: u64,
    /// Payload bytes of completed user/probe flows.
    pub bytes_completed: u64,
    /// Fault start/clear transitions applied from installed fault plans.
    pub fault_transitions: u64,
    /// Flows (any class) reset by [`crate::fault::FaultKind::ConnectionDrop`].
    pub flows_dropped: u64,
    /// Automatic low-water scratch compactions (see
    /// [`NetSim::set_auto_shrink`]).
    pub auto_shrinks: u64,
    /// Component-scoped (incremental) rate solves.
    pub incremental_solves: u64,
    /// Whole-grid (from-scratch) rate solves.
    pub full_solves: u64,
    /// Incremental solves resolved without a fill because no link could
    /// saturate (the mutated flows just take their caps).
    pub uncongested_solves: u64,
    /// Total flows handed to the solver across all solves — the real work
    /// measure behind the incremental-vs-full speedup.
    pub solver_flows_touched: u64,
    /// Fill entries across all solves: one per (route, cap) class of an
    /// incremental solve's component. Full solves fill per flow, so there
    /// every flow is its own entry.
    pub solver_classes_touched: u64,
    /// Same-instant event cohorts handled as one batch (two or more live
    /// internal events sharing a timestamp; see
    /// [`NetSim::set_event_batching`]).
    pub event_cohorts: u64,
    /// Cohort-end solves that replaced two or more deferred per-event
    /// solves with a single component solve (event cohorts and
    /// [`NetSim::batched`] scopes alike).
    pub batched_solves: u64,
    /// Per-event solves skipped because a cohort deferred them into one
    /// batched solve (`deferred - 1` summed over cohorts and scopes).
    pub solves_avoided: u64,
    /// Solver transitions audited and certified against the pre-solve bit
    /// snapshot (only counted while validation is on; see
    /// [`crate::verify`], "Transition certificates").
    pub transitions_certified: u64,
    /// Live flows compared across certified transitions (frozen +
    /// re-integrated) — the delta audit's work measure.
    pub transition_flows_checked: u64,
}

impl EngineStats {
    /// Every counter under its exported metric name (`simnet.<field>`), in
    /// field order — the one place the engine's counters are named for
    /// export. The destructuring names every field, so a new counter does
    /// not compile until it is exported here.
    pub fn counters(&self) -> [(&'static str, u64); 19] {
        let EngineStats {
            events_processed,
            timers_fired,
            flows_started,
            flows_completed,
            background_flows_started,
            bytes_completed,
            fault_transitions,
            flows_dropped,
            auto_shrinks,
            incremental_solves,
            full_solves,
            uncongested_solves,
            solver_flows_touched,
            solver_classes_touched,
            event_cohorts,
            batched_solves,
            solves_avoided,
            transitions_certified,
            transition_flows_checked,
        } = *self;
        [
            ("simnet.events_processed", events_processed),
            ("simnet.timers_fired", timers_fired),
            ("simnet.flows_started", flows_started),
            ("simnet.flows_completed", flows_completed),
            ("simnet.background_flows_started", background_flows_started),
            ("simnet.bytes_completed", bytes_completed),
            ("simnet.fault_transitions", fault_transitions),
            ("simnet.flows_dropped", flows_dropped),
            ("simnet.auto_shrinks", auto_shrinks),
            ("simnet.incremental_solves", incremental_solves),
            ("simnet.full_solves", full_solves),
            ("simnet.uncongested_solves", uncongested_solves),
            ("simnet.solver_flows_touched", solver_flows_touched),
            ("simnet.solver_classes_touched", solver_classes_touched),
            ("simnet.event_cohorts", event_cohorts),
            ("simnet.batched_solves", batched_solves),
            ("simnet.solves_avoided", solves_avoided),
            ("simnet.transitions_certified", transitions_certified),
            ("simnet.transition_flows_checked", transition_flows_checked),
        ]
    }
}

/// The discrete-event network simulator.
///
/// See the [crate-level documentation](crate) for a full example.
#[derive(Debug, Clone)]
pub struct NetSim {
    stats: EngineStats,
    topo: Topology,
    routing: RoutingTable,
    link_caps: Vec<f64>,
    /// Slab of flows; completed/aborted slots become `None` and are reused.
    flows: Vec<Option<FlowState>>,
    free_slots: Vec<u32>,
    /// Live flow id -> slot (lookups only; never iterated, so the hash
    /// map's order cannot leak into the timeline). Fixed hash keys: a
    /// per-process random seed would only make the moment the table
    /// resizes, and with it the engine's allocation count, differ from one
    /// process to the next.
    id_slots: HashMap<FlowId, u32, BuildHasherDefault<DefaultHasher>>,
    /// Per-link cap sums and tightness (see [`LinkLoad`]).
    link_loads: Vec<LinkLoad>,
    /// Links currently tight.
    tight_links: usize,
    /// Every live flow runs at exactly its cap: set after each fill to
    /// "no link is tight", cleared by a fault transition.
    all_at_caps: bool,
    /// Live flows' (route, cap) classes, their members and the per-link
    /// class index.
    classes: FlowClasses,
    /// Live flows of any class.
    active_flows: usize,
    /// Live user/probe flows (public work).
    public_flows: usize,
    queue: EventQueue<Internal, CompletionKey>,
    pending: VecDeque<SimEvent>,
    now: SimTime,
    next_flow: u64,
    pending_timers: usize,
    rng_root: SimRng,
    background: Vec<(BackgroundProfile, SimRng)>,
    faults: Vec<FaultRecord>,
    mode: SolverMode,
    comp: CompScratch,
    solver: MaxMinSolver,
    /// Pre-solve bit snapshot for the transition certificate (filled only
    /// while `validate` is on).
    trans: TransitionScratch,
    /// One-shot armed corruption applied to an out-of-component flow right
    /// before the transition check — a test hook proving the delta audit
    /// catches a solver that leaks outside its component.
    inject_transition: Option<f64>,
    probe: RefCell<ProbeScratch>,
    /// Re-certify every solved component right after the solve (see
    /// [`crate::verify`]); defaults on in debug builds and under the
    /// `validate` feature.
    validate: bool,
    /// Automatic low-water scratch compaction (see
    /// [`NetSim::set_auto_shrink`]).
    auto_shrink: bool,
    /// Peak concurrent flow count since the last compaction — the
    /// high-water mark the low-water trigger compares against.
    slot_high_water: usize,
    /// Pre-fault capacities, diffed after a transition to seed the
    /// incremental re-solve with exactly the links that changed.
    cap_snapshot: Vec<f64>,
    /// `0..link_count`, cached for full-mode solves.
    all_links: Vec<u32>,
    /// Monotonic stamp of the flow/capacity state: bumped whenever a flow
    /// starts, ends, changes cap, or link capacities shift. Residual-
    /// bandwidth caches key off it (see [`NetSim::net_version`]).
    net_version: u64,
    /// Same-instant cohort batching armed (see
    /// [`NetSim::set_event_batching`]; default `true`).
    batching: bool,
    /// A cohort (a same-instant event cohort or a [`NetSim::batched`]
    /// scope) is open: flow mutations apply eagerly but rate solves are
    /// deferred into one batched solve at cohort end.
    batch_active: bool,
    /// Per-mutation solves deferred by the open cohort so far.
    batch_deferred: u64,
}

/// Rate a node-local flow reads as when nothing caps it: the fill gives
/// it an infinite rate, which no [`Bandwidth`] holds.
const NODE_LOCAL_BPS: f64 = 1e15;

/// A flow's solved rate as a [`Bandwidth`]: an infinite rate (an uncapped
/// node-local flow) reads as [`NODE_LOCAL_BPS`], a rate not solved yet
/// (a flow started inside an open [`NetSim::batched`] scope) as zero.
fn reported_rate(bps: f64) -> Bandwidth {
    if bps.is_nan() {
        Bandwidth::ZERO
    } else if bps.is_infinite() {
        Bandwidth::from_bps(NODE_LOCAL_BPS)
    } else {
        Bandwidth::from_bps(bps)
    }
}

/// A flow slot as the `u32` the member lists and component scratch store.
/// Lossless: `start_flow` grows `flows` only through `u32::try_from`, so
/// every slot (and the slot count) fits.
#[expect(
    clippy::cast_possible_truncation,
    reason = "slots are minted through u32::try_from in start_flow"
)]
fn slot_u32(slot: usize) -> u32 {
    slot as u32
}

impl NetSim {
    /// Creates a simulator over `topo`, seeding all engine randomness
    /// (background traffic) from `seed`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "link ids are minted by Topology::add_link through u32::try_from, so every index below the link count fits"
    )]
    pub fn new(topo: Topology, seed: u64) -> Self {
        let routing = RoutingTable::compute(&topo);
        let link_caps: Vec<f64> = topo
            .link_records()
            .iter()
            .map(|l| l.spec.capacity.as_bps())
            .collect();
        let link_count = link_caps.len();
        NetSim {
            stats: EngineStats::default(),
            topo,
            routing,
            link_caps,
            flows: Vec::new(),
            free_slots: Vec::new(),
            id_slots: HashMap::default(),
            link_loads: vec![LinkLoad::default(); link_count],
            tight_links: 0,
            all_at_caps: true,
            classes: FlowClasses {
                link_classes: vec![Vec::new(); link_count],
                ..FlowClasses::default()
            },
            active_flows: 0,
            public_flows: 0,
            queue: EventQueue::default(),
            pending: VecDeque::new(),
            now: SimTime::ZERO,
            next_flow: 0,
            pending_timers: 0,
            rng_root: SimRng::seed_from_u64(seed),
            background: Vec::new(),
            faults: Vec::new(),
            mode: SolverMode::default(),
            comp: CompScratch::default(),
            solver: MaxMinSolver::new(),
            trans: TransitionScratch::default(),
            inject_transition: None,
            probe: RefCell::new(ProbeScratch::default()),
            validate: cfg!(any(debug_assertions, feature = "validate")),
            auto_shrink: true,
            slot_high_water: 0,
            cap_snapshot: Vec::new(),
            all_links: (0..link_count as u32).collect(),
            net_version: 0,
            batching: true,
            batch_active: false,
            batch_deferred: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Monotonic version of the network's flow/capacity state. Any change
    /// that can move a path's residual bandwidth — a flow starting or
    /// ending (any class), a per-flow cap change, a fault capacity edge —
    /// bumps it, so equal versions guarantee equal
    /// [`NetSim::available_bandwidth`] answers.
    pub fn net_version(&self) -> u64 {
        self.net_version
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The static routing table.
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// How rate re-solves are scoped. [`SolverMode::Incremental`] unless
    /// overridden.
    pub fn solver_mode(&self) -> SolverMode {
        self.mode
    }

    /// Overrides the re-solve scoping (benchmarks and differential tests
    /// use [`SolverMode::Full`] as the from-scratch baseline).
    pub fn set_solver_mode(&mut self, mode: SolverMode) {
        self.mode = mode;
    }

    /// Arms or disarms same-instant cohort batching. When armed, internal
    /// events sharing a timestamp (simultaneous completions, fault edges,
    /// background arrivals) apply all their flow mutations first and then
    /// run a *single* component solve over the union of the perturbed
    /// components, instead of one solve per event. Exact: max-min rates
    /// depend only on the final flow/link state of the instant, so the
    /// batched solve assigns the same rates the last per-event solve would
    /// have. The per-event path is kept for differential testing.
    pub fn set_event_batching(&mut self, enabled: bool) {
        debug_assert!(!self.batch_active, "toggled batching inside a cohort");
        self.batching = enabled;
    }

    /// Runs `f` as one same-instant mutation cohort: every flow mutation
    /// inside (`start_flow`, `abort_flow`, `set_flow_cap`) applies eagerly,
    /// but their rate solves are deferred into a single component solve
    /// when `f` returns. Exact for the same reason event cohorts are (see
    /// [`NetSim::set_event_batching`]): max-min rates depend only on the
    /// instant's final flow/link state.
    ///
    /// Inside the scope no solved state may be read once a mutation is
    /// pending: [`NetSim::flow_rate`], [`NetSim::available_bandwidth`],
    /// [`NetSim::link_utilization`], [`NetSim::link_utilizations_into`]
    /// and [`NetSim::verify_allocation`] debug-assert it, and simulated
    /// time may not advance ([`NetSim::next_event`] and
    /// [`NetSim::run_until`] assert the scope is closed). The
    /// [`FlowProgress::rate`] an abort reports inside the scope is the
    /// flow's last solved rate.
    ///
    /// With batching disarmed the scope is a no-op (one solve per
    /// mutation, the differential baseline); a scope opened inside an
    /// open one joins it.
    pub fn batched<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.batching || self.batch_active {
            return f(self);
        }
        self.begin_batch();
        let out = f(self);
        self.end_batch();
        out
    }

    /// Debug-asserts that solved state (rates) is current: no open
    /// cohort holds a deferred solve.
    fn debug_assert_solved(&self) {
        debug_assert!(
            !(self.batch_active && self.batch_deferred > 0),
            "solved state read inside a mutation scope with a solve pending"
        );
    }

    /// Turns per-solve allocation certification on or off at runtime.
    ///
    /// Defaults on in debug builds and under the `validate` cargo feature;
    /// release binaries opt in per run (the bench bins' `--verify` flag).
    /// When enabled, a falsified certificate aborts the simulation
    /// immediately — a wrong allocation must never settle a byte.
    pub fn set_validation(&mut self, enabled: bool) {
        self.validate = enabled;
    }

    /// Arms or disarms the automatic low-water [`NetSim::shrink_scratch`]
    /// trigger: once the peak concurrent flow count has reached at least
    /// 128, draining below 25% of that high-water mark compacts the slab,
    /// stamp arrays and solver buffers in place (and resets the high-water
    /// mark to the surviving population). Long-lived embedders no longer
    /// need to find a quiet point to call [`NetSim::shrink_scratch`] by
    /// hand.
    pub fn set_auto_shrink(&mut self, enabled: bool) {
        self.auto_shrink = enabled;
    }

    /// Certifies the engine's current rate assignment for the whole grid
    /// without trusting any solver internals: conservation on every link,
    /// per-flow caps, byte accounting, and the max-min bottleneck
    /// certificate (see [`crate::verify`] for the exact checks and why
    /// they are complete).
    ///
    /// Read-only; cost is O(flows × route length + links).
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] that falsifies the certificate.
    pub fn verify_allocation(&self) -> Result<Certificate, Violation> {
        self.debug_assert_solved();
        self.verify_scope(self.flows.iter().flatten(), &self.all_links)
    }

    /// Corrupts a live flow's allocated rate in place, bypassing the
    /// solver and the settle path — a test hook proving that
    /// [`NetSim::verify_allocation`] rejects perturbed allocations.
    /// Returns `false` if the flow is not active. The engine is left in
    /// an inconsistent state on purpose; do not keep simulating after it.
    #[doc(hidden)]
    pub fn perturb_rate_for_validation(&mut self, id: FlowId, delta_bps: f64) -> bool {
        let Some(&slot) = self.id_slots.get(&id) else {
            return false;
        };
        self.flows[slot as usize]
            .as_mut()
            .expect("indexed flow is live")
            .rate_bps += delta_bps;
        true
    }

    /// Arms a one-shot corruption of an out-of-component flow's rate,
    /// applied right after the next incremental solve's rate assignment
    /// and before its transition check — a test hook proving the delta
    /// audit rejects a solver that leaks outside its component. The
    /// perturbation is relative: the victim's rate moves by
    /// `max(|rate|, 1) * rel_delta`. Stays armed until a solve actually
    /// has a live flow outside its component. The engine is left in an
    /// inconsistent state once it fires; do not keep simulating after the
    /// resulting panic is caught.
    #[doc(hidden)]
    pub fn inject_transition_fault_for_validation(&mut self, rel_delta: f64) {
        self.inject_transition = Some(rel_delta);
    }

    /// Captures every live flow's rate/byte bit patterns ahead of a solve
    /// — the "before" side of the transition certificate.
    fn snapshot_transition(&mut self) {
        let entries = &mut self.trans.entries;
        entries.clear();
        for (slot, f) in self.flows.iter().enumerate() {
            if let Some(f) = f {
                entries.push((
                    slot_u32(slot),
                    f.rate_bps.to_bits(),
                    f.remaining.to_bits(),
                    f.last_update,
                ));
            }
        }
    }

    /// Audits the transition the solve just applied against the pre-solve
    /// snapshot (see [`crate::verify`], "Transition certificates"). With
    /// `full_scope` every live flow belongs to the solve (full-mode /
    /// whole-grid solves); otherwise membership comes from the component
    /// stamp in `self.comp`.
    fn check_transition(&self, full_scope: bool) -> Result<TransitionCertificate, Violation> {
        let mut cert = TransitionCertificate {
            component_flows: if full_scope {
                self.active_flows
            } else {
                self.comp.member_count(&self.classes)
            },
            ..TransitionCertificate::default()
        };
        for &(slot, rate_bits, rem_bits, last_update) in &self.trans.entries {
            let s = slot as usize;
            let Some(f) = self.flows[s].as_ref() else {
                continue; // slot freed since the snapshot (not by a solve)
            };
            let rate_before = f64::from_bits(rate_bits);
            let rem_before = f64::from_bits(rem_bits);
            let in_scope = full_scope || self.comp.reached(f.class);
            if !in_scope {
                // Component confinement: bit-identical rate, bytes, clock.
                if f.rate_bps.to_bits() != rate_bits {
                    return Err(Violation::OutOfComponentRateChange {
                        flow: f.id,
                        before_bps: rate_before,
                        after_bps: f.rate_bps,
                    });
                }
                if f.remaining.to_bits() != rem_bits || f.last_update != last_update {
                    return Err(Violation::OutOfComponentSettle {
                        flow: f.id,
                        before_remaining: rem_before,
                        after_remaining: f.remaining,
                    });
                }
                cert.frozen_flows += 1;
                continue;
            }
            // In scope: either untouched (rate bits and clock unchanged)
            // or settled by exact re-integration of the *pre-solve* rate.
            // `max(..., 0.0)` mirrors `settle_flow` bit for bit.
            let expected = if f.rate_bps.to_bits() == rate_bits && f.last_update == last_update {
                rem_before
            } else {
                let dt = (self.now - last_update).as_secs_f64();
                if dt > 0.0 {
                    (rem_before - rate_before / 8.0 * dt).max(0.0)
                } else {
                    rem_before
                }
            };
            if f.remaining.to_bits() != expected.to_bits() {
                return Err(Violation::TransitionByteMismatch {
                    flow: f.id,
                    rate_bps: rate_before,
                    expected_remaining: expected,
                    actual_remaining: f.remaining,
                });
            }
            if f.rate_bps.to_bits() != rate_bits {
                cert.resolved_flows += 1;
            } else {
                cert.frozen_flows += 1;
            }
            cert.bytes_settled += (rem_before - f.remaining).max(0.0);
        }
        Ok(cert)
    }

    /// Validate-mode epilogue shared by both solve paths: fire any armed
    /// injection, audit the transition, then re-certify the settled state.
    ///
    /// # Panics
    ///
    /// Panics if either certificate is falsified.
    fn enforce_transition(&mut self, full_scope: bool) {
        if self.inject_transition.is_some() && !full_scope {
            self.apply_transition_injection();
        }
        match self.check_transition(full_scope) {
            Ok(cert) => {
                self.stats.transitions_certified += 1;
                self.stats.transition_flows_checked +=
                    (cert.frozen_flows + cert.resolved_flows) as u64;
            }
            Err(v) => panic!("transition certificate violated after solve: {v}"),
        }
    }

    /// Fires the armed one-shot injection on the first live flow outside
    /// the solved component, if any (stays armed otherwise).
    fn apply_transition_injection(&mut self) {
        let Some(rel) = self.inject_transition else {
            return;
        };
        let victim = (0..self.flows.len()).find(|&s| {
            self.flows[s]
                .as_ref()
                .is_some_and(|f| !self.comp.reached(f.class))
        });
        if let Some(s) = victim {
            self.inject_transition = None;
            let f = self.flows[s].as_mut().expect("victim slot is live");
            f.rate_bps += f.rate_bps.abs().max(1.0) * rel;
        }
    }

    /// Checks the certificate over a scope of flows and the links they
    /// can touch. The scope must be closed: every live flow crossing a
    /// scoped link is itself scoped (the component walker and `all_links`
    /// both guarantee this), otherwise peak shares would be computed
    /// against stale rates.
    fn verify_scope<'f>(
        &'f self,
        scope: impl Iterator<Item = &'f FlowState> + Clone,
        links: &[u32],
    ) -> Result<Certificate, Violation> {
        let mut cert = Certificate::default();
        // Per-flow sanity: solved, feasible, within cap, bytes in range.
        for f in scope.clone() {
            cert.flows += 1;
            let rate = f.rate_bps;
            if rate.is_nan() {
                return Err(Violation::UnsolvedRate { flow: f.id });
            }
            if rate < -ABS_TOL_BPS {
                return Err(Violation::NegativeRate {
                    flow: f.id,
                    rate_bps: rate,
                });
            }
            if rate > f.cap_bps * (1.0 + REL_TOL) + ABS_TOL_BPS {
                return Err(Violation::CapExceeded {
                    flow: f.id,
                    rate_bps: rate,
                    cap_bps: f.cap_bps,
                });
            }
            if !f.remaining.is_finite()
                || f.remaining < -ABS_TOL_BPS
                || f.remaining > f.total_bytes as f64 + 0.5
            {
                return Err(Violation::ByteAccounting {
                    flow: f.id,
                    remaining: f.remaining,
                    total_bytes: f.total_bytes,
                });
            }
            cert.bytes_outstanding += f.remaining.max(0.0);
        }
        // Per-link loads from the persistent crossing indexes. `sat` and
        // `peak` are indexed by raw link id so the bottleneck pass below
        // can look route links up directly.
        // Covers this line and the next:
        let mut sat = vec![false; self.link_caps.len()];
        let mut peak = vec![0.0f64; self.link_caps.len()];
        for &l in links {
            let crossing = &self.classes.link_classes[l as usize];
            let mut used = 0.0f64;
            let mut top = 0.0f64;
            for f in self.class_members(crossing) {
                if f.rate_bps.is_nan() {
                    // A stale crossing flow the solve missed: the
                    // component closure is broken.
                    return Err(Violation::UnsolvedRate { flow: f.id });
                }
                used += f.rate_bps;
                top = top.max(f.rate_bps);
            }
            let cap = self.link_caps[l as usize];
            if used > cap * (1.0 + REL_TOL) + ABS_TOL_BPS {
                return Err(Violation::LinkOversubscribed {
                    link: LinkId(l),
                    allocated_bps: used,
                    capacity_bps: cap,
                });
            }
            if !crossing.is_empty() {
                cert.links_in_use += 1;
                if cap > ABS_TOL_BPS {
                    cert.max_utilization = cert.max_utilization.max(used / cap);
                }
            }
            // A faulted (zero-capacity) link is saturated at zero: flows
            // stalled on it are correctly rate-0, not starved.
            if cap <= ABS_TOL_BPS || used >= cap * (1.0 - REL_TOL) - ABS_TOL_BPS {
                sat[l as usize] = true;
                if !crossing.is_empty() {
                    cert.saturated_links += 1;
                }
            }
            peak[l as usize] = top;
        }
        // Bottleneck certificate: every flow below its cap must cross a
        // saturated link on which no other flow gets a strictly larger
        // share — otherwise its rate could be raised without hurting a
        // smaller-or-equal flow, and the allocation is not max-min fair.
        for f in scope {
            if f.rate_bps >= f.cap_bps * (1.0 - REL_TOL) - ABS_TOL_BPS {
                cert.capped_flows += 1;
                continue;
            }
            let witnessed = f.route.iter().any(|&l| {
                sat[l.index()] && f.rate_bps >= peak[l.index()] * (1.0 - REL_TOL) - ABS_TOL_BPS
            });
            if witnessed {
                cert.bottlenecked_flows += 1;
            } else {
                return Err(Violation::NotBottlenecked {
                    flow: f.id,
                    rate_bps: f.rate_bps,
                });
            }
        }
        Ok(cert)
    }

    /// The live members of `classes`, class by class, first to last.
    fn class_members<'f>(
        &'f self,
        classes: &'f [u32],
    ) -> impl Iterator<Item = &'f FlowState> + Clone {
        classes.iter().flat_map(move |&c| {
            self.classes.members(c).map(move |s| {
                self.flows[s as usize]
                    .as_ref()
                    .expect("class member is live")
            })
        })
    }

    /// Debug/validate-mode hook: re-certify a freshly solved scope — every
    /// live flow with `full_scope`, else every member of each class the
    /// walk in `self.comp` reached — and abort loudly on any
    /// falsification: a wrong allocation must never settle a byte.
    ///
    /// # Panics
    ///
    /// Panics if the certificate does not hold.
    fn enforce_certificate(&self, full_scope: bool) {
        let checked = if full_scope {
            self.verify_scope(self.flows.iter().flatten(), &self.all_links)
        } else {
            self.verify_scope(self.class_members(&self.comp.classes), &self.comp.links)
        };
        if let Err(v) = checked {
            panic!("max-min certificate violated after solve: {v}");
        }
    }

    /// Round-trip time between two nodes.
    ///
    /// # Panics
    ///
    /// Panics if the nodes are not connected.
    pub fn rtt(&self, src: NodeId, dst: NodeId) -> SimDuration {
        self.routing
            .rtt(src, dst)
            .unwrap_or_else(|| panic!("no route {src} -> {dst}"))
    }

    /// Number of currently active flows (including background).
    pub fn active_flow_count(&self) -> usize {
        self.active_flows
    }

    /// Number of currently active **foreground** flows — everything except
    /// [`FlowTag::Background`] traffic, which runs for the whole
    /// simulation. Zero once every user transfer has drained.
    pub fn public_flow_count(&self) -> usize {
        self.public_flows
    }

    /// Number of currently active flows carrying `tag`. Unlike the cached
    /// [`NetSim::public_flow_count`], this scans the flow slab, so it can
    /// separate lingering [`FlowTag::Probe`] measurements from genuine
    /// [`FlowTag::User`] transfers.
    pub fn flow_count_by_tag(&self, tag: FlowTag) -> usize {
        self.flows.iter().flatten().filter(|f| f.tag == tag).count()
    }

    /// Lifetime engine counters (events, timers, flows, bytes, solves).
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Total element capacity held by the reusable scratch structures: the
    /// flow slab, free list, flow-class table with its member lists and
    /// per-link class indexes, stamped component walkers and solver
    /// buffers (both the settle path's and the probe's).
    ///
    /// This is the high-water mark left behind by the busiest moment the
    /// engine has seen; pair with [`NetSim::shrink_scratch`] to measure and
    /// reclaim it between workload sweeps.
    pub fn scratch_footprint(&self) -> usize {
        let probe = self.probe.borrow();
        self.flows.capacity()
            + self.free_slots.capacity()
            + self.classes.footprint()
            + self.comp.footprint()
            + self.solver.scratch_capacity()
            + probe.comp.footprint()
            + probe.solver.scratch_capacity()
        // The transition validator's snapshot buffer is deliberately NOT
        // counted: validation must stay invisible to every exported
        // surface except its own audit counters, and this footprint
        // feeds benchmark reports that are diffed across validation
        // on/off runs. (`shrink_scratch` still releases it.)
    }

    /// Compacts the engine's reusable scratch back toward the *current*
    /// flow population.
    ///
    /// The slab, stamp arrays and solver buffers only ever grow with the
    /// peak concurrent slot/link count (see `CompScratch::begin`); a burst
    /// of thousands of flows leaves that capacity allocated forever. This
    /// hook — intended to run between replay sweeps, when the grid is
    /// (near-)idle — trims trailing free slots from the slab, truncates the
    /// stamp arrays to the surviving slot count and releases the worklist
    /// and solver buffers, and trims the event queue's per-slot key index.
    /// Live flows are untouched: slot indices of retained flows never
    /// change, so the class member lists and any in-flight completions
    /// stay valid, and every buffer regrows on demand.
    pub fn shrink_scratch(&mut self) {
        // Pop trailing empty slots; interior empties must stay (their
        // indices are burned into `free_slots` and the member lists).
        while matches!(self.flows.last(), Some(None)) {
            self.flows.pop();
        }
        let slots = self.flows.len();
        self.free_slots.retain(|&s| (s as usize) < slots);
        self.flows.shrink_to_fit();
        self.free_slots.shrink_to_fit();
        self.classes.shrink(slots);
        self.queue.shrink_key_index();
        let (classes, links) = (self.classes.id_bound(), self.link_caps.len());
        self.comp.shrink(classes, links);
        self.solver.shrink();
        self.trans = TransitionScratch::default();
        let mut probe = self.probe.borrow_mut();
        probe.comp.shrink(classes, links);
        probe.solver.shrink();
    }

    /// Installs a background traffic profile; the first arrival is
    /// scheduled immediately (with an exponential offset).
    ///
    /// # Panics
    ///
    /// Panics if the profile endpoints are not connected.
    pub fn add_background(&mut self, profile: BackgroundProfile) {
        assert!(
            self.routing.path(profile.src, profile.dst).is_some(),
            "background endpoints not connected"
        );
        let idx = self.background.len();
        let mut rng = self.rng_root.fork(&format!(
            "bg:{}:{}:{}",
            idx,
            profile.src.index(),
            profile.dst.index()
        ));
        let first = self.now + SimDuration::from_secs_f64(rng.exponential(profile.arrival_rate_hz));
        self.background.push((profile, rng));
        self.queue
            .push(first, Internal::BackgroundArrival { profile: idx });
    }

    /// Installs a fault plan: every scheduled fault is applied at its start
    /// time and reverted at its end time, with a
    /// [`EventKind::FaultChanged`] notification for each transition.
    ///
    /// Multiple plans may be installed; faults compose (capacity factors
    /// multiply on overlapping windows). Fault transitions alone do not
    /// count as public work: like background traffic, a simulation with
    /// only faults pending reports no events from [`NetSim::next_event`].
    ///
    /// # Panics
    ///
    /// Panics if a fault is scheduled in the simulated past or references a
    /// link or node outside the topology.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        for f in plan.iter() {
            assert!(
                f.at >= self.now,
                "fault scheduled in the past: {} < {}",
                f.at,
                self.now
            );
            match f.kind {
                FaultKind::LinkDown { link } | FaultKind::LinkBrownout { link, .. } => {
                    assert!(link.index() < self.link_caps.len(), "unknown link {link}");
                }
                FaultKind::HostBlackout { node }
                | FaultKind::HostDegraded { node, .. }
                | FaultKind::ConnectionDrop { node } => {
                    assert!(node.index() < self.topo.node_count(), "unknown node {node}");
                }
            }
        }
        for fault in plan.into_faults() {
            let index = self.faults.len();
            self.queue
                .push(fault.at, Internal::FaultTransition { index, start: true });
            if !fault.kind.is_instant() {
                self.queue.push(
                    fault.ends(),
                    Internal::FaultTransition {
                        index,
                        start: false,
                    },
                );
            }
            self.faults.push(FaultRecord {
                fault,
                active: false,
            });
        }
    }

    /// The current effective capacity of a directed link, after any active
    /// faults.
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist.
    pub fn link_capacity(&self, link: LinkId) -> Bandwidth {
        Bandwidth::from_bps(self.link_caps[link.index()])
    }

    /// Number of faults currently active.
    pub fn active_fault_count(&self) -> usize {
        self.faults.iter().filter(|f| f.active).count()
    }

    /// Recomputes every link's effective capacity as its nominal capacity
    /// times the product of all active fault factors touching it.
    fn apply_fault_capacities(&mut self) {
        let NetSim {
            faults,
            link_caps,
            topo,
            ..
        } = self;
        for (i, cap) in link_caps.iter_mut().enumerate() {
            *cap = topo.link_spec(LinkId::from_index(i)).capacity.as_bps();
        }
        for rec in faults.iter().filter(|f| f.active) {
            match rec.fault.kind {
                FaultKind::LinkDown { link } => link_caps[link.index()] = 0.0,
                FaultKind::LinkBrownout { link, factor } => {
                    link_caps[link.index()] *= factor;
                }
                FaultKind::HostBlackout { node } => {
                    for l in topo.incident_links(node) {
                        link_caps[l.index()] = 0.0;
                    }
                }
                FaultKind::HostDegraded { node, factor } => {
                    for l in topo.incident_links(node) {
                        link_caps[l.index()] *= factor;
                    }
                }
                FaultKind::ConnectionDrop { .. } => {}
            }
        }
    }

    /// Starts a flow now; returns its id. Completion is announced through
    /// [`NetSim::next_event`] (except for background flows).
    ///
    /// Zero-byte flows complete immediately; drivers model message latency
    /// with timers (see [`NetSim::schedule_timer_after`]).
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are not connected.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        self.launch(spec, true)
    }

    /// Starts a flow; `keyed` gives it an `id_slots` entry, which every
    /// flow a caller can name needs and engine-started background
    /// arrivals do without.
    fn launch(&mut self, spec: FlowSpec, keyed: bool) -> FlowId {
        let route = self
            .routing
            .path(spec.src, spec.dst)
            .unwrap_or_else(|| panic!("no route {} -> {}", spec.src, spec.dst))
            .links_shared();
        if matches!(spec.tag, FlowTag::Background) {
            self.stats.background_flows_started += 1;
        } else {
            self.stats.flows_started += 1;
            self.public_flows += 1;
        }
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        let cap_bps = spec.cap.map_or(f64::INFINITY, Bandwidth::as_bps);
        let slot = match self.free_slots.pop() {
            Some(s) => {
                debug_assert!(self.flows[s as usize].is_none(), "free slot occupied");
                s
            }
            None => {
                self.flows.push(None);
                // The completion queue's key index and the member links
                // grow with the slab.
                self.queue.reserve_keys(self.flows.capacity());
                self.classes.reserve_slots(self.flows.capacity());
                u32::try_from(self.flows.len() - 1).expect("too many concurrent flows")
            }
        };
        let mut state = FlowState {
            id,
            src: spec.src,
            dst: spec.dst,
            class: 0,
            route: Arc::clone(&route),
            total_bytes: spec.bytes,
            remaining: spec.bytes as f64,
            cap_bps,
            rate_bps: f64::NAN,
            started: self.now,
            last_update: self.now,
            tag: spec.tag,
            token: spec.token,
            keyed,
        };
        state.class = self.classes.join(&state, slot);
        self.flows[slot as usize] = Some(state);
        self.track_load(&route, cap_bps, 1);
        if keyed {
            self.id_slots.insert(id, slot);
        }
        self.net_version += 1;
        self.active_flows += 1;
        if self.active_flows > self.slot_high_water {
            self.slot_high_water = self.active_flows;
        }
        self.reallocate_for_flow(slot as usize);
        id
    }

    /// Aborts an active flow, returning its progress, or `None` if the flow
    /// is not active (already completed or aborted).
    pub fn abort_flow(&mut self, id: FlowId) -> Option<FlowProgress> {
        let &slot = self.id_slots.get(&id)?;
        let slot = slot as usize;
        self.settle_flow(slot);
        let f = self.remove_flow(slot);
        self.reallocate_after_removal(&f.route);
        Some(FlowProgress {
            bytes_done: f.total_bytes as f64 - f.remaining,
            bytes_remaining: f.remaining,
            rate: reported_rate(f.rate_bps),
        })
    }

    /// Changes the rate ceiling of an active flow (e.g. an endpoint's disk
    /// got busier). Returns `false` if the flow is no longer active.
    pub fn set_flow_cap(&mut self, id: FlowId, cap: Bandwidth) -> bool {
        let Some(&slot) = self.id_slots.get(&id) else {
            return false;
        };
        let f = self.flows[slot as usize]
            .as_mut()
            .expect("indexed flow is live");
        let old_cap = f.cap_bps;
        if cap.as_bps().to_bits() != old_cap.to_bits() {
            self.classes.leave(f, slot);
            f.cap_bps = cap.as_bps();
            f.class = self.classes.join(f, slot);
        }
        let route = Arc::clone(&f.route);
        self.track_load(&route, old_cap, -1);
        self.track_load(&route, cap.as_bps(), 1);
        self.net_version += 1;
        self.reallocate_for_flow(slot as usize);
        true
    }

    /// The rate currently allocated to a flow, if it is active; it reads
    /// as [`FlowProgress::rate`] does.
    pub fn flow_rate(&self, id: FlowId) -> Option<Bandwidth> {
        self.debug_assert_solved();
        let &slot = self.id_slots.get(&id)?;
        let f = self.flows[slot as usize]
            .as_ref()
            .expect("indexed flow is live");
        Some(reported_rate(f.rate_bps))
    }

    /// Schedules a timer to fire at absolute time `at` with a caller token.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn schedule_timer(&mut self, at: SimTime, token: u64) {
        assert!(at >= self.now, "timer in the past: {at} < {}", self.now);
        self.pending_timers += 1;
        self.queue.push(at, Internal::Timer { token });
    }

    /// Schedules a timer `after` from now.
    pub fn schedule_timer_after(&mut self, after: SimDuration, token: u64) {
        self.pending_timers += 1;
        self.queue.push(self.now + after, Internal::Timer { token });
    }

    /// The bandwidth a hypothetical new single stream with ceiling `cap`
    /// would receive right now between `src` and `dst` — what an NWS
    /// bandwidth sensor observes. Does not disturb existing flows.
    ///
    /// Called per candidate during replica ranking, so it is allocation
    /// free: the phantom flow is solved over the probe path's connected
    /// component only, on scratch buffers reused across calls.
    ///
    /// Returns [`Bandwidth::ZERO`] when the nodes are not connected.
    pub fn available_bandwidth(
        &self,
        src: NodeId,
        dst: NodeId,
        cap: Option<Bandwidth>,
    ) -> Bandwidth {
        self.debug_assert_solved();
        let Some(path) = self.routing.path(src, dst) else {
            return Bandwidth::ZERO;
        };
        if path.links().is_empty() {
            // Node-local: bounded only by the cap.
            return cap.unwrap_or(Bandwidth::from_bps(NODE_LOCAL_BPS));
        }
        let mut probe = self.probe.borrow_mut();
        let ProbeScratch { comp, solver } = &mut *probe;
        comp.begin(self.classes.id_bound(), self.link_caps.len());
        for &l in path.links() {
            comp.add_link(l);
        }
        comp.expand(&self.classes, &self.flows);
        // The phantom flow is its own weight-1 entry, after the classes.
        let k = comp.classes.len();
        let (classes, flows) = (&self.classes, &self.flows);
        let comp = &*comp;
        let first = |e: usize| classes.first(comp.classes[e], flows);
        let phantom_cap = cap.map_or(f64::INFINITY, Bandwidth::as_bps);
        let rates = solver.solve_with(
            k + 1,
            |e| {
                if e < k {
                    first(e).route.as_ref()
                } else {
                    path.links()
                }
            },
            |e| if e < k { first(e).cap_bps } else { phantom_cap },
            |e| {
                if e < k {
                    classes.members[comp.classes[e] as usize] as usize
                } else {
                    1
                }
            },
            &comp.links,
            &self.link_caps,
        );
        Bandwidth::from_bps(rates[k])
    }

    /// Instantaneous utilisation (0–1) of a directed link. O(flows crossing
    /// the link) via the per-link class index.
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist.
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        self.debug_assert_solved();
        let cap = self.link_caps[link.index()];
        if cap <= 0.0 {
            return 0.0;
        }
        let used: f64 = self
            .class_members(&self.classes.link_classes[link.index()])
            .map(|f| f.rate_bps)
            .sum();
        // Solver arithmetic can leave a -0.0 residue on idle links.
        (used / cap).max(0.0)
    }

    /// Write every link's instantaneous utilisation (0–1) into `out`, in
    /// link-index order, reusing the caller's buffer. One deterministic
    /// pass for timeline sampling, instead of per-link calls.
    pub fn link_utilizations_into(&self, out: &mut Vec<f64>) {
        self.debug_assert_solved();
        out.clear();
        out.reserve(self.link_caps.len());
        for index in 0..self.link_caps.len() {
            out.push(self.link_utilization(LinkId::from_index(index)));
        }
    }

    /// Returns the next public event, advancing simulated time.
    ///
    /// Returns `None` when no public event can ever arrive: no user or
    /// probe flow is active and no timer is pending. (Background traffic
    /// alone never produces public events, so the engine refuses to spin on
    /// it forever.)
    pub fn next_event(&mut self) -> Option<SimEvent> {
        debug_assert!(!self.batch_active, "next_event inside a mutation scope");
        loop {
            if let Some(ev) = self.pending.pop_front() {
                return Some(ev);
            }
            // Guard against a pure-background simulation spinning forever:
            // if no user/probe flow is active and no timer is pending, stop.
            if !self.has_public_work() {
                return None;
            }
            let (time, internal) = self.queue.pop()?;
            debug_assert!(time >= self.now, "event queue went backwards");
            self.now = time;
            if self.batching && self.queue.peek_time() == Some(time) {
                self.handle_cohort(time, internal);
            } else {
                self.handle(internal);
            }
        }
    }

    /// Processes everything scheduled up to and including `until`, returning
    /// the public events that occurred. Afterwards `now() == until` (or
    /// later if it already was).
    pub fn run_until(&mut self, until: SimTime) -> Vec<SimEvent> {
        debug_assert!(!self.batch_active, "run_until inside a mutation scope");
        let mut events = Vec::new();
        loop {
            events.extend(self.pending.drain(..));
            match self.queue.peek_time() {
                Some(t) if t <= until => {
                    let (time, internal) = self.queue.pop().expect("peeked");
                    self.now = time;
                    if self.batching && self.queue.peek_time() == Some(time) {
                        self.handle_cohort(time, internal);
                    } else {
                        self.handle(internal);
                    }
                }
                _ => break,
            }
        }
        events.extend(self.pending.drain(..));
        if self.now < until {
            self.now = until;
        }
        events
    }

    /// `true` while any user/probe flow is active or any timer is pending.
    fn has_public_work(&self) -> bool {
        self.pending_timers > 0 || self.public_flows > 0
    }

    /// Handles a same-instant cohort: `first` plus every queued event
    /// sharing its timestamp, with all per-event solves deferred into one
    /// batched solve at the end. Flow mutations (slab inserts/removals,
    /// capacity changes, RNG draws) still apply eagerly in pop order, so
    /// everything except solve scheduling is identical to the per-event
    /// path.
    fn handle_cohort(&mut self, time: SimTime, first: Internal) {
        self.stats.event_cohorts += 1;
        self.begin_batch();
        self.handle(first);
        while self.queue.peek_time() == Some(time) {
            let (_, internal) = self.queue.pop().expect("peeked same-time event");
            self.handle(internal);
        }
        self.end_batch();
    }

    fn begin_batch(&mut self) {
        debug_assert!(!self.batch_active, "nested cohort");
        self.batch_active = true;
        self.batch_deferred = 0;
        if matches!(self.mode, SolverMode::Incremental) {
            self.comp
                .begin(self.classes.id_bound(), self.link_caps.len());
        }
    }

    /// Runs the one solve the cohort deferred (if any events actually
    /// perturbed flows — timer-only cohorts defer nothing).
    fn end_batch(&mut self) {
        debug_assert!(self.batch_active, "end_batch outside a cohort");
        self.batch_active = false;
        let deferred = self.batch_deferred;
        self.batch_deferred = 0;
        if deferred == 0 {
            return;
        }
        match self.mode {
            SolverMode::Full => self.resolve_everything(),
            SolverMode::Incremental => {
                // Classes seeded by an arrival or re-cap and released again
                // within the same cohort (drops, instant completions) are
                // dead now.
                let members = &self.classes.members;
                self.comp.classes.retain(|&c| members[c as usize] > 0);
                self.solve_seeded();
            }
        }
        if deferred > 1 {
            self.stats.batched_solves += 1;
            self.stats.solves_avoided += deferred - 1;
        }
        // The low-water compaction was suppressed while the cohort was
        // open (it would have clobbered the deferred worklists); re-check
        // it now that the batch has solved.
        self.maybe_auto_shrink();
    }

    /// Defers the re-solve for a flow that appeared or changed caps while
    /// a cohort is open. Seeds the route links directly (not just the
    /// class): if the class id was already seeded by a released class
    /// this cohort, the stamp dedup would otherwise skip the new class's
    /// (possibly different) route.
    fn defer_flow_seed(&mut self, slot: usize) {
        self.batch_deferred += 1;
        if matches!(self.mode, SolverMode::Full) {
            return;
        }
        self.comp.ensure_classes(self.classes.id_bound());
        let f = self.flows[slot]
            .as_ref()
            .expect("deferred seed of dead slot");
        for &l in f.route.iter() {
            self.comp.add_link(l);
        }
        self.comp.add_class(f.class, &self.classes, &self.flows);
    }

    /// Defers the re-solve for a flow that disappeared while a cohort is
    /// open; its route links seed the batched component walk.
    fn defer_removal_seed(&mut self, route: &[LinkId]) {
        self.batch_deferred += 1;
        if matches!(self.mode, SolverMode::Full) {
            return;
        }
        for &l in route {
            self.comp.add_link(l);
        }
    }

    /// Re-checks the low-water compaction trigger (see
    /// [`NetSim::set_auto_shrink`]).
    fn maybe_auto_shrink(&mut self) {
        if self.auto_shrink
            && self.slot_high_water >= AUTO_SHRINK_MIN_HIGH_WATER
            && self.active_flows * 4 < self.slot_high_water
        {
            self.shrink_scratch();
            self.stats.auto_shrinks += 1;
            self.slot_high_water = self.active_flows;
        }
    }

    #[expect(
        clippy::float_cmp,
        reason = "a fault transition seeds every link whose capacity moved by any amount, so the snapshot compare is bit for bit"
    )]
    fn handle(&mut self, internal: Internal) {
        self.stats.events_processed += 1;
        match internal {
            Internal::Timer { token } => {
                self.pending_timers -= 1;
                self.stats.timers_fired += 1;
                self.pending.push_back(SimEvent {
                    time: self.now,
                    kind: EventKind::TimerFired(token),
                });
            }
            Internal::Completion { slot } => {
                let slot = slot as usize;
                self.settle_flow(slot);
                let f = self.flows[slot].as_ref().expect("queued flow is live");
                // An infinite rate (an uncapped node-local flow) delivers
                // everything at once, though no time passes to settle it.
                if f.remaining > 0.5 && f.rate_bps.is_finite() {
                    // Rounding left a sliver; reschedule precisely.
                    self.schedule_completion(slot);
                    return;
                }
                let f = self.remove_flow(slot);
                if !matches!(f.tag, FlowTag::Background) {
                    self.stats.flows_completed += 1;
                    self.stats.bytes_completed += f.total_bytes;
                    self.pending.push_back(SimEvent {
                        time: self.now,
                        kind: EventKind::FlowCompleted(FlowCompletion {
                            id: f.id,
                            src: f.src,
                            dst: f.dst,
                            bytes: f.total_bytes,
                            started: f.started,
                            finished: self.now,
                            tag: f.tag,
                            token: f.token,
                        }),
                    });
                }
                self.reallocate_after_removal(&f.route);
            }
            Internal::BackgroundArrival { profile } => {
                let (p, rng) = &mut self.background[profile];
                let size = if p.size_sigma > 0.0 {
                    rng.lognormal_with_mean(p.mean_size_bytes, p.size_sigma)
                } else {
                    p.mean_size_bytes
                };
                let next =
                    self.now + SimDuration::from_secs_f64(rng.exponential(p.arrival_rate_hz));
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "a background flow size is a finite byte count at least 1; `as` saturates rather than wraps"
                )]
                let spec = FlowSpec {
                    src: p.src,
                    dst: p.dst,
                    bytes: size.max(1.0) as u64,
                    cap: p.flow_cap,
                    tag: FlowTag::Background,
                    token: 0,
                };
                self.queue
                    .push(next, Internal::BackgroundArrival { profile });
                self.launch(spec, false);
            }
            Internal::FaultTransition { index, start } => {
                self.stats.fault_transitions += 1;
                let kind = self.faults[index].fault.kind;
                self.faults[index].active = start && !kind.is_instant();
                let mut drop_seeds = Vec::new();
                if let FaultKind::ConnectionDrop { node } = kind {
                    drop_seeds = self.drop_connections_through(node);
                }
                self.cap_snapshot.clear();
                self.cap_snapshot.extend_from_slice(&self.link_caps);
                self.apply_fault_capacities();
                (0..self.link_caps.len()).for_each(|l| self.retally(l));
                // Faults always fill: clearing the flag forces a cohort's.
                self.all_at_caps = false;
                self.net_version += 1;
                if self.batch_active {
                    self.batch_deferred += 1;
                    if matches!(self.mode, SolverMode::Incremental) {
                        for &l in &drop_seeds {
                            self.comp.add_link(l);
                        }
                        for i in 0..self.link_caps.len() {
                            if self.link_caps[i] != self.cap_snapshot[i] {
                                self.comp.add_link(LinkId::from_index(i));
                            }
                        }
                    }
                } else {
                    match self.mode {
                        SolverMode::Full => self.resolve_everything(),
                        SolverMode::Incremental => {
                            self.comp
                                .begin(self.classes.id_bound(), self.link_caps.len());
                            for &l in &drop_seeds {
                                self.comp.add_link(l);
                            }
                            for i in 0..self.link_caps.len() {
                                if self.link_caps[i] != self.cap_snapshot[i] {
                                    self.comp.add_link(LinkId::from_index(i));
                                }
                            }
                            self.comp.expand(&self.classes, &self.flows);
                            self.solve_component();
                        }
                    }
                }
                self.pending.push_back(SimEvent {
                    time: self.now,
                    kind: EventKind::FaultChanged(FaultNotice {
                        index,
                        kind,
                        active: start,
                    }),
                });
            }
        }
    }

    /// Removes every active flow whose source, destination or route touches
    /// `node`, returning the union of their route links (the seeds for the
    /// incremental re-solve). Reset flows vanish without a completion event
    /// — exactly like a TCP connection killed by a crashing peer; drivers
    /// detect the loss through their own timeouts.
    fn drop_connections_through(&mut self, node: NodeId) -> Vec<LinkId> {
        let incident = self.topo.incident_links(node);
        let mut victims: Vec<u32> = Vec::new();
        for (slot, f) in self.flows.iter().enumerate() {
            let Some(f) = f else { continue };
            if f.src == node || f.dst == node || f.route.iter().any(|l| incident.contains(l)) {
                victims.push(slot_u32(slot));
            }
        }
        let mut seeds: Vec<LinkId> = Vec::new();
        for &slot in &victims {
            let f = self.remove_flow(slot as usize);
            seeds.extend_from_slice(&f.route);
        }
        self.stats.flows_dropped += victims.len() as u64;
        seeds
    }

    /// Advances one flow's byte counter to `self.now`. Lazy counterpart of
    /// the old settle-the-world pass: exact because a flow's rate is
    /// constant between rate assignments, so integration can be deferred
    /// until the rate is about to change or progress is read.
    fn settle_flow(&mut self, slot: usize) {
        let now = self.now;
        let f = self.flows[slot].as_mut().expect("settle of dead slot");
        let dt = (now - f.last_update).as_secs_f64();
        if dt > 0.0 {
            f.remaining = (f.remaining - f.rate_bps / 8.0 * dt).max(0.0);
        }
        f.last_update = now;
    }

    /// Unlinks a flow from the slab, the id map and its class.
    fn remove_flow(&mut self, slot: usize) -> FlowState {
        let f = self.flows[slot].take().expect("remove of dead slot");
        self.queue.remove_key(slot);
        if f.keyed {
            self.id_slots.remove(&f.id);
        }
        self.classes.leave(&f, slot_u32(slot));
        self.track_load(&f.route, f.cap_bps, -1);
        self.free_slots.push(slot_u32(slot));
        self.net_version += 1;
        self.active_flows -= 1;
        if !matches!(f.tag, FlowTag::Background) {
            self.public_flows -= 1;
        }
        // Low-water trigger: a burst that grew the scratch has drained far
        // enough that keeping its high-water capacity is pure waste. Not
        // while a cohort is open — compaction would clobber the deferred
        // component worklists; `end_batch` re-checks.
        if !self.batch_active {
            self.maybe_auto_shrink();
        }
        f
    }

    /// Re-solves after `slot` appeared or changed caps: its connected
    /// component in incremental mode, everything in full mode.
    fn reallocate_for_flow(&mut self, slot: usize) {
        if self.batch_active {
            self.defer_flow_seed(slot);
            return;
        }
        match self.mode {
            SolverMode::Full => self.resolve_everything(),
            SolverMode::Incremental => {
                self.comp
                    .begin(self.classes.id_bound(), self.link_caps.len());
                let class = self.flows[slot].as_ref().expect("seed of dead slot").class;
                self.comp.add_class(class, &self.classes, &self.flows);
                self.solve_seeded();
            }
        }
    }

    /// Re-solves after a flow on `route` disappeared (completion, abort).
    fn reallocate_after_removal(&mut self, route: &[LinkId]) {
        if self.batch_active {
            self.defer_removal_seed(route);
            return;
        }
        match self.mode {
            SolverMode::Full => self.resolve_everything(),
            SolverMode::Incremental => {
                self.comp
                    .begin(self.classes.id_bound(), self.link_caps.len());
                for &l in route {
                    self.comp.add_link(l);
                }
                self.solve_seeded();
            }
        }
    }

    /// Runs progressive filling over the component currently held in
    /// `self.comp`, then settles and reschedules exactly the flows whose
    /// rate actually changed, class by class in discovery order.
    fn solve_component(&mut self) {
        self.all_at_caps = self.tight_links == 0;
        let k = self.comp.classes.len();
        if k == 0 {
            return;
        }
        if self.validate {
            self.snapshot_transition();
        }
        self.comp.fill(
            &mut self.solver,
            &self.classes,
            &self.flows,
            &self.link_caps,
        );
        self.stats.incremental_solves += 1;
        self.stats.solver_flows_touched += self.comp.member_count(&self.classes) as u64;
        self.stats.solver_classes_touched += k as u64;
        for e in 0..k {
            self.rerate_class(e, true);
        }
        if self.validate {
            #[cfg(test)]
            self.audit_walk();
            self.enforce_transition(false);
            self.enforce_certificate(false);
        }
    }

    /// The rate tail of component class `e`: re-rates each member, first
    /// to last, whose rate differs from the fill's (`from_fill`) or from
    /// its cap.
    #[expect(
        clippy::float_cmp,
        reason = "a member is re-rated only when its rate differs bit for bit; NAN (never solved) differs from everything"
    )]
    fn rerate_class(&mut self, e: usize, from_fill: bool) {
        let first = self.classes.head[self.comp.classes[e] as usize];
        let mut slot = first;
        loop {
            let next = self.classes.next[slot as usize];
            let f = self.flows[slot as usize]
                .as_ref()
                .expect("class member is live");
            let new_rate = if from_fill {
                self.solver.take_member_rate(e)
            } else {
                f.cap_bps
            };
            // NAN (never solved) differs from everything, so a new flow
            // always takes the tail.
            if f.rate_bps != new_rate {
                self.assign_rate(slot as usize, new_rate);
            }
            if next == first {
                return;
            }
            slot = next;
        }
    }

    /// Resolves the component seeded in `self.comp`: with every flow at
    /// its cap and no link tight, re-rates just the seeded classes'
    /// members; otherwise expands the seeds and runs the fill.
    fn solve_seeded(&mut self) {
        if self.all_at_caps && self.tight_links == 0 {
            self.resolve_uncongested();
        } else {
            self.comp.expand(&self.classes, &self.flows);
            self.solve_component();
        }
    }

    /// The fill's answer while no link is tight and none was at the last
    /// fill: every flow at its cap (DESIGN.md §4d). Only members of the
    /// seeded classes can be off it; they take the fill's tail in its
    /// order.
    fn resolve_uncongested(&mut self) {
        let (comp, on_link) = (&self.comp, &self.classes.link_classes);
        if comp.classes.is_empty() && comp.links.iter().all(|&l| on_link[l as usize].is_empty()) {
            return;
        }
        if self.validate {
            self.snapshot_transition();
        }
        self.stats.uncongested_solves += 1;
        for e in 0..self.comp.classes.len() {
            self.rerate_class(e, false);
        }
        if self.validate {
            self.check_uncongested();
        }
    }

    /// Validation oracle of [`NetSim::resolve_uncongested`]: walks and
    /// fills the component the fill would have solved, on scratch swapped
    /// in for `self.comp`, and requires every member's rate to equal the
    /// fill's bit for bit; then certifies the transition and allocation.
    fn check_uncongested(&mut self) {
        std::mem::swap(&mut self.comp, &mut self.trans.comp);
        let NetSim {
            comp,
            trans,
            flows,
            classes,
            ..
        } = self;
        // `trans.comp` now holds the engine's walk and its seeds.
        comp.begin(classes.id_bound(), self.link_caps.len());
        for &c in &trans.comp.classes {
            comp.add_class(c, classes, flows);
        }
        for &l in &trans.comp.links {
            comp.add_link(LinkId(l));
        }
        comp.expand(classes, flows);
        comp.fill(&mut trans.solver, classes, flows, &self.link_caps);
        for (e, &c) in comp.classes.iter().enumerate() {
            for slot in classes.members(c) {
                let f = flows[slot as usize].as_ref().expect("walked flow is live");
                let fill = trans.solver.take_member_rate(e);
                assert!(
                    fill.to_bits() == f.rate_bps.to_bits(),
                    "uncongested resolution left flow {} at {} bps; the fill gives {fill}",
                    f.id,
                    f.rate_bps
                );
            }
        }
        #[cfg(test)]
        self.audit_walk();
        self.enforce_transition(false);
        self.enforce_certificate(false);
        std::mem::swap(&mut self.comp, &mut self.trans.comp);
    }

    /// The per-flow tail of every component resolution, for a flow whose
    /// rate changed: settles it, sets the new rate and refiles its
    /// completion. Callers go class by class in discovery order, members
    /// first to last: the event queue breaks completion ties FIFO.
    fn assign_rate(&mut self, slot: usize, new_rate: f64) {
        let old_rate = self.flows[slot]
            .as_ref()
            .expect("resolved flow is live")
            .rate_bps;
        self.settle_flow(slot);
        let f = self.flows[slot].as_mut().expect("resolved flow is live");
        f.rate_bps = new_rate;
        if old_rate > 0.0 && f.remaining <= 0.5 {
            // Already due: a progressing flow whose bytes ran out still
            // has its completion entry for this instant queued. Record
            // the new rate (the certificate must see solved rates) but
            // leave the entry, so it pops in its original order — this
            // keeps the public timeline identical between the
            // batched-cohort and per-event paths.
            return;
        }
        self.schedule_completion(slot);
    }

    /// Adds (`delta` 1) or removes (-1) a flow of cap `cap_bps` in the
    /// load of each link on `route`, after the link indexes changed.
    fn track_load(&mut self, route: &[LinkId], cap_bps: f64, delta: i32) {
        for &l in route {
            let load = &mut self.link_loads[l.index()];
            if cap_bps.is_finite() {
                load.cap_sum += f64::from(delta) * cap_bps;
            } else {
                load.unbounded += delta;
            }
            if self.classes.link_classes[l.index()].is_empty() {
                // Rounding never outlives the link's last flow.
                load.cap_sum = 0.0;
            }
            self.retally(l.index());
        }
    }

    /// Re-derives whether link `l` is tight (see [`LinkLoad`]).
    fn retally(&mut self, l: usize) {
        let load = &mut self.link_loads[l];
        let cap = self.link_caps[l];
        let tight = !self.classes.link_classes[l].is_empty()
            && (load.unbounded > 0 || cap < 1.0 || load.cap_sum > cap * (1.0 - UNCONGESTED_MARGIN));
        self.tight_links = self.tight_links + usize::from(tight) - usize::from(load.tight);
        load.tight = tight;
    }

    /// Full-mode baseline: settle every flow, solve the whole grid from
    /// scratch, reschedule every completion — the engine's behaviour
    /// before per-link indexes. The fill runs per flow, not per class, so
    /// `SolverMode::Full` stays the per-flow reference the class fill is
    /// differentially tested against.
    fn resolve_everything(&mut self) {
        self.all_at_caps = self.tight_links == 0;
        if self.validate {
            self.snapshot_transition();
        }
        self.stats.full_solves += 1;
        self.stats.solver_flows_touched += self.active_flows as u64;
        self.stats.solver_classes_touched += self.active_flows as u64;
        self.comp.slots.clear();
        for slot in 0..self.flows.len() {
            if self.flows[slot].is_some() {
                self.settle_flow(slot);
                self.comp.slots.push(slot_u32(slot));
            }
        }
        let n = self.comp.slots.len();
        {
            let flows = &self.flows;
            let comp_flows = &self.comp.slots;
            self.solver.solve_with(
                n,
                |i| {
                    flows[comp_flows[i] as usize]
                        .as_ref()
                        .expect("live flow")
                        .route
                        .as_ref()
                },
                |i| {
                    flows[comp_flows[i] as usize]
                        .as_ref()
                        .expect("live flow")
                        .cap_bps
                },
                |_| 1,
                &self.all_links,
                &self.link_caps,
            );
        }
        for i in 0..n {
            let slot = self.comp.slots[i] as usize;
            let rate = self.solver.rate(i);
            let f = self.flows[slot].as_mut().expect("live flow");
            let due = f.rate_bps > 0.0 && f.remaining <= 0.5;
            f.rate_bps = rate;
            if due {
                // Already due (see `solve_component`): keep the queued
                // completion entry so pop order matches the batched path.
                continue;
            }
            self.schedule_completion(slot);
        }
        if self.validate {
            self.enforce_transition(true);
            self.enforce_certificate(true);
        }
    }

    /// Files the flow's completion under its slot, replacing the entry
    /// its previous rate scheduled; a stalled flow has none.
    fn schedule_completion(&mut self, slot: usize) {
        let f = self.flows[slot].as_ref().expect("schedule of dead slot");
        let when = if f.remaining <= 0.5 {
            // Effectively done; deliver after the path's residual latency 0
            // (bytes already in flight are abstracted away by the fluid
            // model).
            self.now
        } else if f.rate_bps > 0.0 {
            self.now + SimDuration::from_secs_f64(f.remaining / (f.rate_bps / 8.0))
        } else {
            // Stalled; a future reallocation will reschedule.
            self.queue.remove_key(slot);
            return;
        };
        self.queue.push(
            when,
            Internal::Completion {
                slot: slot_u32(slot),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;

    fn mbps(m: f64) -> Bandwidth {
        Bandwidth::from_mbps(m)
    }

    fn ms(m: u64) -> SimDuration {
        SimDuration::from_millis(m)
    }

    /// a --100Mbps-- b --100Mbps-- c
    fn line() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_duplex_link(a, b, LinkSpec::new(mbps(100.0), ms(1)));
        t.add_duplex_link(b, c, LinkSpec::new(mbps(100.0), ms(1)));
        (t, a, b, c)
    }

    #[test]
    fn single_flow_completes_at_capacity() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 1);
        // 100 Mbps = 12.5 MB/s; 12.5 MB should take 1 s.
        let id = sim.start_flow(FlowSpec::new(a, c, 12_500_000));
        let ev = sim.next_event().expect("completion");
        match ev.kind {
            EventKind::FlowCompleted(done) => {
                assert_eq!(done.id, id);
                assert_eq!(done.bytes, 12_500_000);
                let secs = done.duration().as_secs_f64();
                assert!((secs - 1.0).abs() < 1e-6, "took {secs}");
                assert!((done.avg_throughput().as_mbps() - 100.0).abs() < 1e-3);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(sim.active_flow_count(), 0);
    }

    #[test]
    fn flow_token_round_trips_to_its_completion() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 1);
        sim.start_flow(FlowSpec::new(a, c, 1_000_000).with_token(1 << 33));
        sim.start_flow(FlowSpec::new(a, c, 2_000_000));
        let tokens: Vec<u64> = std::iter::from_fn(|| sim.next_event())
            .filter_map(|ev| match ev.kind {
                EventKind::FlowCompleted(done) => Some(done.token),
                _ => None,
            })
            .collect();
        assert_eq!(tokens, [1 << 33, 0], "the default token is 0");
    }

    #[test]
    fn stats_count_flows_timers_and_bytes() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 1);
        assert_eq!(sim.stats(), EngineStats::default());
        sim.start_flow(FlowSpec::new(a, c, 12_500_000));
        sim.schedule_timer_after(ms(100), 7);
        while sim.next_event().is_some() {}
        let stats = sim.stats();
        assert_eq!(stats.flows_started, 1);
        assert_eq!(stats.flows_completed, 1);
        assert_eq!(stats.timers_fired, 1);
        assert_eq!(stats.bytes_completed, 12_500_000);
        assert_eq!(stats.background_flows_started, 0);
        assert!(stats.events_processed >= 2);
    }

    #[test]
    fn flow_cap_limits_rate() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 1);
        sim.start_flow(FlowSpec::new(a, c, 12_500_000).with_cap(mbps(50.0)));
        let ev = sim.next_event().unwrap();
        match ev.kind {
            EventKind::FlowCompleted(done) => {
                assert!((done.duration().as_secs_f64() - 2.0).abs() < 1e-6);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 1);
        // Two equal flows share 100 Mbps: each at 50 Mbps. First finishes at
        // 2 s (12.5 MB at 6.25 MB/s); second then runs alone.
        let f1 = sim.start_flow(FlowSpec::new(a, c, 12_500_000));
        let f2 = sim.start_flow(FlowSpec::new(a, c, 25_000_000));
        assert!((sim.flow_rate(f1).unwrap().as_mbps() - 50.0).abs() < 1e-9);
        let ev1 = sim.next_event().unwrap();
        let EventKind::FlowCompleted(d1) = ev1.kind else {
            panic!("want completion")
        };
        assert_eq!(d1.id, f1);
        assert!((d1.duration().as_secs_f64() - 2.0).abs() < 1e-6);
        // f2: 25 MB total; 12.5 MB done in the first 2 s, the rest at full
        // 12.5 MB/s takes 1 s more.
        let ev2 = sim.next_event().unwrap();
        let EventKind::FlowCompleted(d2) = ev2.kind else {
            panic!("want completion")
        };
        assert_eq!(d2.id, f2);
        assert!(
            (d2.finished.as_secs_f64() - 3.0).abs() < 1e-6,
            "{}",
            d2.finished
        );
    }

    #[test]
    fn timers_fire_in_order_with_flows() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 1);
        sim.schedule_timer(SimTime::from_secs_f64(0.5), 7);
        sim.start_flow(FlowSpec::new(a, c, 12_500_000)); // completes at 1 s
        sim.schedule_timer_after(SimDuration::from_secs(2), 9);
        let e1 = sim.next_event().unwrap();
        assert_eq!(e1.kind, EventKind::TimerFired(7));
        assert_eq!(e1.time, SimTime::from_secs_f64(0.5));
        let e2 = sim.next_event().unwrap();
        assert!(matches!(e2.kind, EventKind::FlowCompleted(_)));
        let e3 = sim.next_event().unwrap();
        assert_eq!(e3.kind, EventKind::TimerFired(9));
        assert_eq!(sim.next_event(), None);
    }

    #[test]
    fn abort_reports_progress() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 1);
        let id = sim.start_flow(FlowSpec::new(a, c, 12_500_000));
        sim.schedule_timer(SimTime::from_secs_f64(0.4), 1);
        let _ = sim.next_event(); // timer at 0.4 s
        let progress = sim.abort_flow(id).expect("active");
        assert!((progress.bytes_done - 5_000_000.0).abs() < 1.0);
        assert!((progress.bytes_remaining - 7_500_000.0).abs() < 1.0);
        assert_eq!(sim.abort_flow(id), None);
        assert_eq!(sim.next_event(), None); // completion was cancelled
    }

    #[test]
    fn set_flow_cap_takes_effect() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 1);
        let id = sim.start_flow(FlowSpec::new(a, c, 12_500_000));
        sim.schedule_timer(SimTime::from_secs_f64(0.5), 1);
        let _ = sim.next_event();
        // Half done at 0.5 s; cap to 25 Mbps -> remaining 6.25 MB at
        // 3.125 MB/s = 2 s more.
        assert!(sim.set_flow_cap(id, mbps(25.0)));
        let ev = sim.next_event().unwrap();
        let EventKind::FlowCompleted(done) = ev.kind else {
            panic!()
        };
        assert!(
            (done.finished.as_secs_f64() - 2.5).abs() < 1e-6,
            "{}",
            done.finished
        );
        assert!(!sim.set_flow_cap(id, mbps(1.0)));
    }

    #[test]
    fn available_bandwidth_accounts_for_active_flows() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 1);
        assert!((sim.available_bandwidth(a, c, None).as_mbps() - 100.0).abs() < 1e-9);
        sim.start_flow(FlowSpec::new(a, c, 1_000_000_000));
        // A new flow would share fairly: 50 Mbps.
        assert!((sim.available_bandwidth(a, c, None).as_mbps() - 50.0).abs() < 1e-9);
        // A capped probe reports its cap when below the share.
        let seen = sim.available_bandwidth(a, c, Some(mbps(10.0)));
        assert!((seen.as_mbps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn link_utilization_reflects_rates() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 1);
        let path = sim.routing().path(a, c).unwrap().clone();
        sim.start_flow(FlowSpec::new(a, c, 1_000_000).with_cap(mbps(40.0)));
        for l in path.links() {
            assert!((sim.link_utilization(*l) - 0.4).abs() < 1e-9);
        }
    }

    #[test]
    fn background_traffic_slows_user_flow() {
        let (t, a, b, c) = line();
        let mut sim = NetSim::new(t, 42);
        // ~32% offered load on the b->c link direction used by a->c flows.
        sim.add_background(
            BackgroundProfile::new(b, c, 2.0, 2_000_000.0).with_flow_cap(mbps(50.0)),
        );
        let id = sim.start_flow(FlowSpec::new(a, c, 12_500_000));
        let mut done = None;
        while let Some(ev) = sim.next_event() {
            if let EventKind::FlowCompleted(d) = ev.kind {
                if d.id == id {
                    done = Some(d);
                    break;
                }
            }
        }
        let d = done.expect("user flow completes despite background");
        // Alone it would take 1 s; with ~40% utilisation background it must
        // be measurably slower but still finish.
        let secs = d.duration().as_secs_f64();
        assert!(secs > 1.05, "background had no effect: {secs}");
        assert!(secs < 20.0, "background starved the flow: {secs}");
    }

    #[test]
    fn background_alone_yields_no_events() {
        let (t, a, b, _) = line();
        let mut sim = NetSim::new(t, 7);
        sim.add_background(BackgroundProfile::new(a, b, 5.0, 1_000_000.0));
        assert_eq!(sim.next_event(), None);
    }

    #[test]
    fn run_until_advances_clock_and_collects() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 1);
        sim.start_flow(FlowSpec::new(a, c, 12_500_000)); // done at 1 s
        sim.schedule_timer(SimTime::from_secs_f64(3.0), 5);
        let events = sim.run_until(SimTime::from_secs_f64(2.0));
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].kind, EventKind::FlowCompleted(_)));
        assert_eq!(sim.now(), SimTime::from_secs_f64(2.0));
        let events = sim.run_until(SimTime::from_secs_f64(4.0));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::TimerFired(5));
    }

    #[test]
    fn determinism_same_seed_same_timeline() {
        let run = |seed: u64| -> Vec<(u64, u64)> {
            let (t, a, b, c) = line();
            let mut sim = NetSim::new(t, seed);
            sim.add_background(BackgroundProfile::new(b, c, 3.0, 1_500_000.0));
            let mut out = Vec::new();
            for i in 0..5 {
                let id = sim.start_flow(FlowSpec::new(a, c, 4_000_000 + i * 123_456));
                loop {
                    match sim.next_event() {
                        Some(SimEvent {
                            time,
                            kind: EventKind::FlowCompleted(d),
                        }) if d.id == id => {
                            out.push((time.as_nanos(), d.bytes));
                            break;
                        }
                        Some(_) => {}
                        None => panic!("flow never completed"),
                    }
                }
            }
            out
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 1);
        sim.start_flow(FlowSpec::new(a, c, 0));
        let ev = sim.next_event().unwrap();
        assert_eq!(ev.time, SimTime::ZERO);
        assert!(matches!(ev.kind, EventKind::FlowCompleted(_)));
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unconnected_flow_panics() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let mut sim = NetSim::new(t, 1);
        sim.start_flow(FlowSpec::new(a, b, 10));
    }

    #[test]
    fn probe_flows_emit_completions() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 1);
        sim.start_flow(FlowSpec::new(a, c, 500_000).with_tag(FlowTag::Probe));
        let ev = sim.next_event().unwrap();
        let EventKind::FlowCompleted(d) = ev.kind else {
            panic!()
        };
        assert_eq!(d.tag, FlowTag::Probe);
    }

    #[test]
    fn byte_conservation_under_churn() {
        // Start several flows at staggered times; total delivered bytes must
        // equal the sum of sizes when all complete.
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 3);
        let sizes = [3_000_000u64, 5_000_000, 7_000_000, 11_000_000];
        let mut started = 0usize;
        let mut total_done = 0u64;
        sim.start_flow(FlowSpec::new(a, c, sizes[0]));
        started += 1;
        sim.schedule_timer(SimTime::from_secs_f64(0.1), 100);
        let mut completions = 0;
        while let Some(ev) = sim.next_event() {
            match ev.kind {
                EventKind::TimerFired(_) if started < sizes.len() => {
                    sim.start_flow(FlowSpec::new(a, c, sizes[started]));
                    started += 1;
                    sim.schedule_timer_after(SimDuration::from_millis(100), 100);
                }
                EventKind::FlowCompleted(d) => {
                    total_done += d.bytes;
                    completions += 1;
                }
                _ => {}
            }
        }
        assert_eq!(completions, sizes.len());
        assert_eq!(total_done, sizes.iter().sum::<u64>());
    }

    #[test]
    fn shrink_scratch_releases_high_water_capacity() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 7);
        // This test measures the *manual* compaction hook, so the
        // automatic low-water trigger must not fire mid-drain.
        sim.set_auto_shrink(false);
        // High-water burst: hundreds of concurrent flows grow the slab,
        // stamp arrays, per-link indexes and solver buffers.
        for i in 0..512 {
            sim.start_flow(FlowSpec::new(a, c, 100_000 + i));
        }
        while sim.next_event().is_some() {}
        assert_eq!(sim.active_flow_count(), 0);
        let high_water = sim.scratch_footprint();
        assert!(
            high_water >= 512,
            "burst should leave capacity behind, got {high_water}"
        );
        sim.shrink_scratch();
        let compacted = sim.scratch_footprint();
        assert!(
            compacted < high_water / 4,
            "shrink_scratch kept {compacted} of {high_water} elements"
        );
        // The engine still works after compaction, and the buffers regrow
        // only to what the new load needs.
        let id = sim.start_flow(FlowSpec::new(a, c, 2_500_000));
        let ev = sim.next_event().expect("flow completes after shrink");
        match ev.kind {
            EventKind::FlowCompleted(d) => {
                assert_eq!(d.id, id);
                assert_eq!(d.bytes, 2_500_000);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert!(sim.scratch_footprint() < high_water / 4);
    }

    #[test]
    fn shrink_scratch_preserves_live_flows() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 11);
        // Burst and drain a large population, then shrink while one flow
        // is still in flight: it must finish with the right byte count.
        for _ in 0..256 {
            sim.start_flow(FlowSpec::new(a, c, 50_000));
        }
        // Identical flows finish at the same instant; drain the whole
        // cohort's completion events, not just until the count hits zero.
        while sim.next_event().is_some() {}
        assert_eq!(sim.active_flow_count(), 0);
        let id = sim.start_flow(FlowSpec::new(a, c, 4_000_000));
        sim.shrink_scratch();
        let mut done = false;
        while let Some(ev) = sim.next_event() {
            if let EventKind::FlowCompleted(d) = ev.kind {
                assert_eq!(d.id, id);
                assert_eq!(d.bytes, 4_000_000);
                done = true;
            }
        }
        assert!(done);
    }

    #[test]
    fn auto_shrink_fires_at_low_water() {
        // Identical 512-flow bursts; only the trigger arming differs.
        let run = |auto: bool| {
            let (t, a, _, c) = line();
            let mut sim = NetSim::new(t, 13);
            sim.set_auto_shrink(auto);
            // Decreasing sizes: the newest slots drain first, so the slab's
            // trailing-slot truncation has something to reclaim (interior
            // holes must keep their indices and can never be compacted).
            for i in 0..512u64 {
                sim.start_flow(FlowSpec::new(a, c, 100_000 + (511 - i) * 1_000));
            }
            while sim.next_event().is_some() {}
            assert_eq!(sim.active_flow_count(), 0);
            (sim, a, c)
        };
        let (control, _, _) = run(false);
        assert_eq!(control.stats().auto_shrinks, 0);
        let (mut sim, a, c) = run(true);
        assert!(
            sim.stats().auto_shrinks >= 1,
            "draining a 512-flow burst should trigger the low-water compaction"
        );
        // The last compaction fires at <25% occupancy, so at most a quarter
        // of the high-water capacity can survive the drain.
        let (auto, manual) = (sim.scratch_footprint(), control.scratch_footprint());
        assert!(
            auto < manual / 2,
            "auto-shrink kept {auto} of the {manual}-element high-water scratch"
        );
        // The engine keeps working after an automatic compaction.
        let id = sim.start_flow(FlowSpec::new(a, c, 1_000_000));
        match sim.next_event().expect("flow completes").kind {
            EventKind::FlowCompleted(d) => assert_eq!(d.id, id),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn auto_shrink_spares_small_populations() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 17);
        // A burst below the arming threshold must never compact: small
        // simulations keep their warm buffers.
        for _ in 0..64 {
            sim.start_flow(FlowSpec::new(a, c, 50_000));
        }
        while sim.next_event().is_some() {}
        assert_eq!(sim.stats().auto_shrinks, 0);
        // And disarming the trigger suppresses it outright.
        sim.set_auto_shrink(false);
        for _ in 0..256 {
            sim.start_flow(FlowSpec::new(a, c, 50_000));
        }
        while sim.next_event().is_some() {}
        assert_eq!(sim.stats().auto_shrinks, 0);
    }

    #[test]
    fn class_churn_leaves_one_scratch_footprint_in_every_fresh_simulator() {
        // Eight leaves on a hub: 56 ordered pairs times four caps give up
        // to 224 flow classes, which join and leave in waves as flows of
        // mixed sizes start on a timer and finish out of order.
        let churn = || {
            let mut t = Topology::new();
            let hub = t.add_node("hub");
            let leaves: Vec<NodeId> = (0..8).map(|i| t.add_node(format!("n{i}"))).collect();
            for &leaf in &leaves {
                t.add_duplex_link(hub, leaf, LinkSpec::new(mbps(100.0), ms(1)));
            }
            let mut sim = NetSim::new(t, 29);
            sim.set_auto_shrink(false);
            let mut x = 0x9e37_79b9_7f4a_7c15_u64;
            let mut started = 0;
            sim.schedule_timer(SimTime::ZERO, 1);
            while let Some(ev) = sim.next_event() {
                if !matches!(ev.kind, EventKind::TimerFired(_)) || started == 600 {
                    continue;
                }
                for _ in 0..12 {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let b = x.to_be_bytes();
                    let (i, j) = (usize::from(b[0] % 8), usize::from(b[1] % 7));
                    let (src, dst) = (leaves[i], leaves[(i + 1 + j) % 8]);
                    let cap = mbps([5.0, 10.0, 20.0, 40.0][usize::from(b[2] % 4)]);
                    let bytes = 50_000 + u64::from(b[3]) * 2_000;
                    sim.start_flow(FlowSpec::new(src, dst, bytes).with_cap(cap));
                    started += 1;
                }
                sim.schedule_timer_after(ms(20), 1);
            }
            assert_eq!(sim.active_flow_count(), 0);
            sim.scratch_footprint()
        };
        let first = churn();
        for _ in 0..7 {
            assert_eq!(
                churn(),
                first,
                "the class table's capacity moved between runs"
            );
        }
    }

    #[test]
    fn verify_allocation_accepts_settled_states_and_rejects_perturbations() {
        let (t, a, b, c) = line();
        let mut sim = NetSim::new(t, 23);
        let idle = sim.verify_allocation().expect("empty grid certifies");
        assert_eq!(idle.flows, 0);
        let f1 = sim.start_flow(FlowSpec::new(a, c, 50_000_000));
        let f2 = sim.start_flow(FlowSpec::new(a, b, 50_000_000));
        let cert = sim.verify_allocation().expect("settled state certifies");
        assert_eq!(cert.flows, 2);
        assert!(cert.saturated_links >= 1, "shared uplink must saturate");
        assert!(cert.max_utilization > 0.99 && cert.max_utilization <= 1.0 + 1e-6);
        assert_eq!(cert.capped_flows + cert.bottlenecked_flows, 2);
        // Nudging one rate either way falsifies the certificate: up breaks
        // conservation, down breaks max-minness.
        let rate = sim.flow_rate(f1).expect("f1 live").as_bps();
        assert!(sim.perturb_rate_for_validation(f1, rate * 1e-3));
        assert!(matches!(
            sim.verify_allocation(),
            Err(Violation::LinkOversubscribed { .. }) | Err(Violation::CapExceeded { .. })
        ));
        assert!(sim.perturb_rate_for_validation(f1, -2.0 * rate * 1e-3));
        assert!(matches!(
            sim.verify_allocation(),
            Err(Violation::NotBottlenecked { .. })
        ));
        // Restore and the proof holds again.
        assert!(sim.perturb_rate_for_validation(f1, rate * 1e-3));
        sim.verify_allocation().expect("restored state certifies");
        let _ = f2;
    }
}

#[cfg(test)]
mod mode_tests {
    use super::*;
    use crate::topology::LinkSpec;

    fn mbps(m: f64) -> Bandwidth {
        Bandwidth::from_mbps(m)
    }

    fn ms(m: u64) -> SimDuration {
        SimDuration::from_millis(m)
    }

    /// Two disconnected pairs: a--b and c--d.
    fn disjoint_pairs() -> (Topology, [NodeId; 4]) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let d = t.add_node("d");
        t.add_duplex_link(a, b, LinkSpec::new(mbps(100.0), ms(1)));
        t.add_duplex_link(c, d, LinkSpec::new(mbps(100.0), ms(1)));
        (t, [a, b, c, d])
    }

    #[test]
    fn incremental_solves_only_the_perturbed_component() {
        let (t, [a, b, c, d]) = disjoint_pairs();
        let mut sim = NetSim::new(t, 1);
        assert_eq!(sim.solver_mode(), SolverMode::Incremental);
        sim.start_flow(FlowSpec::new(a, b, 12_500_000));
        sim.start_flow(FlowSpec::new(c, d, 12_500_000));
        let s = sim.stats();
        assert_eq!(s.incremental_solves, 2);
        assert_eq!(s.full_solves, 0);
        // Each arrival solved a single-flow component: starting c->d did
        // not re-solve the a->b side.
        assert_eq!(s.solver_flows_touched, 2);
        let mut completed = 0;
        while let Some(ev) = sim.next_event() {
            if matches!(ev.kind, EventKind::FlowCompleted(_)) {
                completed += 1;
            }
        }
        assert_eq!(completed, 2);
        // Per-link index drained back to empty: utilisation reads zero.
        for l in 0..sim.topology().link_count() {
            assert_eq!(sim.link_utilization(LinkId::from_index(l)), 0.0);
        }
    }

    #[test]
    fn full_mode_counts_full_solves() {
        let (t, [a, b, _, _]) = disjoint_pairs();
        let mut sim = NetSim::new(t, 1);
        sim.set_solver_mode(SolverMode::Full);
        assert_eq!(sim.solver_mode(), SolverMode::Full);
        // The two identical flows complete at the same instant; disarm
        // cohort batching so the per-event solve counts stay exact.
        sim.set_event_batching(false);
        sim.start_flow(FlowSpec::new(a, b, 12_500_000));
        sim.start_flow(FlowSpec::new(a, b, 12_500_000));
        while sim.next_event().is_some() {}
        let s = sim.stats();
        assert_eq!(s.incremental_solves, 0);
        // Two starts + two completions, each a full solve.
        assert_eq!(s.full_solves, 4);
        // 1 at first start, 2 at second, 1 after the first completion, 0
        // after the last.
        assert_eq!(s.solver_flows_touched, 4);
    }

    #[test]
    fn full_and_incremental_agree_on_the_timeline() {
        // Shared-bottleneck churn with background traffic: both modes must
        // produce the same completions. On a single connected component the
        // incremental path solves the same system over the same links, so
        // the timelines agree to the nanosecond.
        let run = |mode: SolverMode| -> Vec<(u64, u64)> {
            let mut t = Topology::new();
            let a = t.add_node("a");
            let b = t.add_node("b");
            let c = t.add_node("c");
            t.add_duplex_link(a, b, LinkSpec::new(mbps(100.0), ms(1)));
            t.add_duplex_link(b, c, LinkSpec::new(mbps(100.0), ms(1)));
            let mut sim = NetSim::new(t, 11);
            sim.set_solver_mode(mode);
            sim.add_background(BackgroundProfile::new(b, c, 4.0, 1_500_000.0));
            let mut out = Vec::new();
            for i in 0..4u64 {
                let id = sim.start_flow(FlowSpec::new(a, c, 3_000_000 + i * 777_777));
                loop {
                    match sim.next_event() {
                        Some(SimEvent {
                            time,
                            kind: EventKind::FlowCompleted(d),
                        }) if d.id == id => {
                            out.push((time.as_nanos(), d.bytes));
                            break;
                        }
                        Some(_) => {}
                        None => panic!("flow never completed"),
                    }
                }
            }
            out
        };
        assert_eq!(run(SolverMode::Incremental), run(SolverMode::Full));
    }

    #[test]
    fn probe_scratch_reuse_matches_first_call() {
        let (t, [a, b, c, d]) = disjoint_pairs();
        let mut sim = NetSim::new(t, 1);
        sim.start_flow(FlowSpec::new(a, b, 1_000_000_000));
        let first = sim.available_bandwidth(a, b, None);
        // Interleave probes of both components; reused buffers must not
        // leak state between calls.
        let other = sim.available_bandwidth(c, d, None);
        let again = sim.available_bandwidth(a, b, None);
        assert_eq!(first, again);
        assert!((other.as_mbps() - 100.0).abs() < 1e-9);
        assert!((first.as_mbps() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn slot_reuse_keeps_ids_and_completions_straight() {
        // Drive many short flows through a single slot; ids must never
        // collide and every flow must complete exactly once.
        let (t, [a, b, _, _]) = disjoint_pairs();
        let mut sim = NetSim::new(t, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let id = sim.start_flow(FlowSpec::new(a, b, 500_000));
            let ev = sim.next_event().expect("completes");
            let EventKind::FlowCompleted(d) = ev.kind else {
                panic!("unexpected event");
            };
            assert_eq!(d.id, id);
            assert!(seen.insert(d.id), "flow id reused");
        }
        assert_eq!(sim.stats().flows_completed, 50);
        assert_eq!(sim.active_flow_count(), 0);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::topology::LinkSpec;

    fn mbps(m: f64) -> Bandwidth {
        Bandwidth::from_mbps(m)
    }

    /// a --100Mbps-- b --100Mbps-- c
    fn line() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_duplex_link(
            a,
            b,
            LinkSpec::new(mbps(100.0), SimDuration::from_millis(1)),
        );
        t.add_duplex_link(
            b,
            c,
            LinkSpec::new(mbps(100.0), SimDuration::from_millis(1)),
        );
        (t, a, b, c)
    }

    fn drain(sim: &mut NetSim) -> Vec<SimEvent> {
        let mut out = Vec::new();
        while let Some(ev) = sim.next_event() {
            out.push(ev);
        }
        out
    }

    #[test]
    fn link_down_stalls_then_flow_recovers() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 1);
        let path = sim.routing().path(a, c).unwrap().clone();
        let first = path.links()[0];
        // Alone the 12.5 MB flow takes 1 s; a 2 s outage starting at 0.5 s
        // (half the bytes already delivered) pushes completion to 3.0 s.
        sim.install_fault_plan(FaultPlan::new().link_down(
            SimTime::from_secs_f64(0.5),
            SimDuration::from_secs(2),
            first,
        ));
        sim.start_flow(FlowSpec::new(a, c, 12_500_000));
        let events = drain(&mut sim);
        let fault_changes: Vec<&SimEvent> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FaultChanged(_)))
            .collect();
        assert_eq!(fault_changes.len(), 2, "start + clear");
        let EventKind::FaultChanged(start) = &fault_changes[0].kind else {
            unreachable!()
        };
        assert!(start.active);
        assert_eq!(start.kind, FaultKind::LinkDown { link: first });
        let done = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::FlowCompleted(d) => Some(d.clone()),
                _ => None,
            })
            .expect("flow completes after fault clears");
        assert!(
            (done.finished.as_secs_f64() - 3.0).abs() < 1e-6,
            "finished at {}",
            done.finished
        );
        assert_eq!(sim.stats().fault_transitions, 2);
        assert_eq!(sim.active_fault_count(), 0);
    }

    #[test]
    fn brownout_scales_capacity_and_restores() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 1);
        let path = sim.routing().path(a, c).unwrap().clone();
        let first = path.links()[0];
        let nominal = sim.link_capacity(first);
        // 50% brown-out over [0.5 s, 1.5 s]: 6.25 MB done by 0.5 s, then
        // 6.25 MB/s for 1 s (6.25 MB), done exactly at 1.5 s.
        sim.install_fault_plan(FaultPlan::new().link_brownout(
            SimTime::from_secs_f64(0.5),
            SimDuration::from_secs(1),
            first,
            0.5,
        ));
        sim.start_flow(FlowSpec::new(a, c, 12_500_000));
        let events = drain(&mut sim);
        let done = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::FlowCompleted(d) => Some(d.clone()),
                _ => None,
            })
            .expect("completes");
        assert!(
            (done.finished.as_secs_f64() - 1.5).abs() < 1e-6,
            "finished at {}",
            done.finished
        );
        assert_eq!(sim.link_capacity(first), nominal, "capacity restored");
    }

    #[test]
    fn host_blackout_kills_all_incident_links() {
        let (t, a, b, c) = line();
        let mut sim = NetSim::new(t, 1);
        sim.install_fault_plan(FaultPlan::new().host_blackout(
            SimTime::ZERO,
            SimDuration::from_secs(5),
            b,
        ));
        sim.schedule_timer(SimTime::from_secs_f64(1.0), 1);
        let ev = sim.next_event().unwrap();
        assert!(matches!(ev.kind, EventKind::FaultChanged(n) if n.active));
        assert_eq!(sim.active_fault_count(), 1);
        // Every path crosses b, so no bandwidth is available anywhere.
        assert_eq!(sim.available_bandwidth(a, c, None), Bandwidth::ZERO);
        assert_eq!(sim.available_bandwidth(c, a, None), Bandwidth::ZERO);
    }

    #[test]
    fn connection_drop_resets_flows_without_completion() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 1);
        sim.install_fault_plan(FaultPlan::new().connection_drop(SimTime::from_secs_f64(0.5), c));
        let id = sim.start_flow(FlowSpec::new(a, c, 12_500_000));
        sim.schedule_timer(SimTime::from_secs_f64(2.0), 9);
        let events = drain(&mut sim);
        assert!(
            !events
                .iter()
                .any(|e| matches!(e.kind, EventKind::FlowCompleted(_))),
            "reset flow must not complete: {events:?}"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::FaultChanged(n) if n.active)));
        assert_eq!(sim.stats().flows_dropped, 1);
        assert_eq!(sim.flow_rate(id), None);
        assert_eq!(sim.active_fault_count(), 0, "connection drops are instant");
    }

    #[test]
    fn overlapping_faults_compose_and_unwind() {
        let (t, a, _, c) = line();
        let mut sim = NetSim::new(t, 1);
        let path = sim.routing().path(a, c).unwrap().clone();
        let first = path.links()[0];
        sim.install_fault_plan(
            FaultPlan::new()
                .link_brownout(
                    SimTime::from_secs_f64(1.0),
                    SimDuration::from_secs(4),
                    first,
                    0.5,
                )
                .link_brownout(
                    SimTime::from_secs_f64(2.0),
                    SimDuration::from_secs(1),
                    first,
                    0.5,
                ),
        );
        let at = |secs: f64, sim: &mut NetSim| {
            sim.schedule_timer(SimTime::from_secs_f64(secs), 0);
            while let Some(ev) = sim.next_event() {
                if matches!(ev.kind, EventKind::TimerFired(0)) {
                    break;
                }
            }
        };
        at(1.5, &mut sim);
        assert!((sim.link_capacity(first).as_mbps() - 50.0).abs() < 1e-9);
        at(2.5, &mut sim);
        assert!((sim.link_capacity(first).as_mbps() - 25.0).abs() < 1e-9);
        at(3.5, &mut sim);
        assert!((sim.link_capacity(first).as_mbps() - 50.0).abs() < 1e-9);
        at(5.5, &mut sim);
        assert!((sim.link_capacity(first).as_mbps() - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "fault scheduled in the past")]
    fn past_fault_rejected() {
        let (t, _, b, _) = line();
        let mut sim = NetSim::new(t, 1);
        sim.schedule_timer(SimTime::from_secs_f64(1.0), 0);
        while sim.next_event().is_some() {}
        sim.install_fault_plan(FaultPlan::new().host_blackout(
            SimTime::ZERO,
            SimDuration::from_secs(1),
            b,
        ));
    }

    /// Every pending queue entry is accounted for: one completion per
    /// live flow that is progressing (or already due), none for a stalled
    /// or dead slot, plus the pending timers, one arrival per background
    /// profile and each fault edge still ahead. Holds between public
    /// calls with batching on, where a cohort drains every preinstalled
    /// fault edge of its instant.
    fn assert_queue_exact(sim: &NetSim) {
        let mut completions = 0;
        for (slot, f) in sim.flows.iter().enumerate() {
            let Some(f) = f else {
                assert!(!sim.queue.contains_key(slot), "dead slot {slot} queued");
                continue;
            };
            let due = f.rate_bps > 0.0 || f.remaining <= 0.5;
            assert_eq!(
                sim.queue.contains_key(slot),
                due,
                "slot {slot}: rate {} remaining {}",
                f.rate_bps,
                f.remaining
            );
            completions += usize::from(due);
        }
        let fault_edges: usize = sim
            .faults
            .iter()
            .map(|r| {
                usize::from(r.fault.at > sim.now)
                    + usize::from(!r.fault.kind.is_instant() && r.fault.ends() > sim.now)
            })
            .sum();
        assert_eq!(
            sim.queue.len(),
            completions + sim.pending_timers + sim.background.len() + fault_edges,
            "queue holds an entry no live event accounts for at {}",
            sim.now
        );
    }

    #[test]
    fn queue_holds_no_stale_completion_under_churn() {
        let (t, a, b, c) = line();
        let mut sim = NetSim::new(t, 3);
        let first = sim.routing().path(a, c).unwrap().links()[0];
        sim.add_background(BackgroundProfile::new(b, c, 5.0, 500_000.0));
        sim.install_fault_plan(
            FaultPlan::new()
                .link_down(
                    SimTime::from_secs_f64(0.4),
                    SimDuration::from_secs_f64(0.6),
                    first,
                )
                .connection_drop(SimTime::from_secs_f64(1.5), c),
        );
        let mut live: Vec<FlowId> = Vec::new();
        for i in 0..6u64 {
            live.push(sim.start_flow(FlowSpec::new(a, c, 2_000_000 + i * 1_000_000)));
        }
        for i in 0..3u64 {
            live.push(sim.start_flow(FlowSpec::new(a, b, 1_000_000 + i * 700_000)));
        }
        live.push(sim.start_flow(FlowSpec::new(b, c, 3_000_000).with_cap(mbps(20.0))));
        for k in 1..=30u32 {
            sim.schedule_timer(SimTime::from_secs_f64(0.1 * f64::from(k)), u64::from(k));
        }
        assert_queue_exact(&sim);

        let mut stalled = false;
        while let Some(ev) = sim.next_event() {
            assert_queue_exact(&sim);
            stalled |= sim.flows.iter().flatten().any(|f| f.rate_bps == 0.0);
            match ev.kind {
                EventKind::FlowCompleted(done) => live.retain(|&id| id != done.id),
                EventKind::TimerFired(k) => {
                    live.retain(|&id| sim.flow_rate(id).is_some());
                    match k % 3 {
                        0 => {
                            let (src, dst) = if k % 2 == 0 { (a, c) } else { (b, c) };
                            live.push(sim.start_flow(FlowSpec::new(
                                src,
                                dst,
                                1_500_000 + k * 10_000,
                            )));
                        }
                        1 if !live.is_empty() => {
                            assert!(sim.abort_flow(live.remove(0)).is_some());
                        }
                        2 if !live.is_empty() => {
                            let id = live[live.len() / 2];
                            let cap = if k % 2 == 0 { 10.0 } else { 40.0 };
                            assert!(sim.set_flow_cap(id, mbps(cap)));
                        }
                        _ => {}
                    }
                    assert_queue_exact(&sim);
                }
                EventKind::FaultChanged(_) => {}
            }
        }
        assert!(stalled, "the link-down window must stall a flow to rate 0");
        assert!(
            sim.stats().flows_dropped > 0,
            "the connection drop must reset flows"
        );
        assert!(
            sim.stats().flows_started + sim.stats().background_flows_started
                > sim.flows.len() as u64,
            "freed slots must be reused"
        );
        assert_eq!(sim.public_flow_count(), 0);
        assert_queue_exact(&sim);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::topology::LinkSpec;

    fn mbps(m: f64) -> Bandwidth {
        Bandwidth::from_mbps(m)
    }

    fn ms(m: u64) -> SimDuration {
        SimDuration::from_millis(m)
    }

    /// a --100Mbps-- hub --100Mbps-- b, plus hub --100Mbps-- c.
    fn star() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let hub = t.add_node("hub");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_duplex_link(a, hub, LinkSpec::new(mbps(100.0), ms(1)));
        t.add_duplex_link(hub, b, LinkSpec::new(mbps(100.0), ms(1)));
        t.add_duplex_link(hub, c, LinkSpec::new(mbps(100.0), ms(1)));
        (t, a, hub, b, c)
    }

    /// Drains a sim to quiescence, returning the (time, id, bytes)
    /// timeline of completions.
    fn drain(sim: &mut NetSim) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        while let Some(ev) = sim.next_event() {
            if let EventKind::FlowCompleted(d) = ev.kind {
                out.push((ev.time.as_nanos(), d.id.0, d.bytes));
            }
        }
        out
    }

    #[test]
    fn simultaneous_completions_batch_into_one_solve() {
        let run = |batching: bool| {
            let (t, a, _, b, _) = star();
            let mut sim = NetSim::new(t, 7);
            sim.set_event_batching(batching);
            // 8 identical flows share one bottleneck: equal rates, equal
            // bytes, one completion instant — an 8-event cohort.
            for _ in 0..8 {
                sim.start_flow(FlowSpec::new(a, b, 1_000_000));
            }
            let timeline = drain(&mut sim);
            (timeline, sim.stats())
        };
        let (batched_timeline, batched) = run(true);
        let (plain_timeline, plain) = run(false);
        assert_eq!(batched_timeline, plain_timeline);
        assert_eq!(batched_timeline.len(), 8);
        // Unbatched: 8 arrival solves + 7 completion solves (the last
        // removal leaves an empty component, which is not a solve).
        // Batched: the 8 same-instant completions collapse into one
        // cohort whose end-of-batch component is already empty.
        assert_eq!(plain.incremental_solves, 15);
        assert_eq!(batched.incremental_solves, 8);
        // The queue holds one completion per flow, so the eight
        // completions are the only same-instant cohort.
        assert_eq!(batched.event_cohorts, 1);
        assert_eq!(batched.batched_solves, 1);
        assert_eq!(batched.solves_avoided, 7);
        assert_eq!(plain.solves_avoided, 0);
        assert_eq!(plain.event_cohorts, 0);
        sim_stats_quiescent(&batched, &plain);
    }

    /// The non-solver counters must be identical either way: batching
    /// defers solves, never events or flow mutations.
    fn sim_stats_quiescent(batched: &EngineStats, plain: &EngineStats) {
        // The queue holds exactly the live events either way, so both
        // paths pop the same entries.
        assert_eq!(batched.events_processed, plain.events_processed);
        assert_eq!(batched.flows_started, plain.flows_started);
        assert_eq!(batched.flows_completed, plain.flows_completed);
        assert_eq!(batched.bytes_completed, plain.bytes_completed);
        assert_eq!(batched.fault_transitions, plain.fault_transitions);
        assert_eq!(batched.flows_dropped, plain.flows_dropped);
    }

    #[test]
    fn simultaneous_fault_edges_batch_into_one_solve() {
        let run = |batching: bool| {
            let (t, a, _, b, c) = star();
            let at = SimTime::from_secs_f64(0.02);
            let hold = SimDuration::from_secs(5);
            let mut sim = NetSim::new(t, 9);
            sim.set_event_batching(batching);
            let to_b = sim.routing().path(a, b).expect("routable").links()[1];
            let to_c = sim.routing().path(a, c).expect("routable").links()[1];
            // Two fault edges on the same instant, both touching live
            // components.
            sim.install_fault_plan(
                FaultPlan::new()
                    .link_brownout(at, hold, to_b, 0.5)
                    .link_brownout(at, hold, to_c, 0.25),
            );
            sim.start_flow(FlowSpec::new(a, b, 4_000_000));
            sim.start_flow(FlowSpec::new(a, c, 5_000_000));
            let timeline = drain(&mut sim);
            (timeline, sim.stats())
        };
        let (batched_timeline, batched) = run(true);
        let (plain_timeline, plain) = run(false);
        assert_eq!(batched_timeline, plain_timeline);
        assert_eq!(batched_timeline.len(), 2);
        assert!(batched.event_cohorts >= 1);
        assert!(batched.solves_avoided >= 1);
        assert!(batched.incremental_solves < plain.incremental_solves);
        sim_stats_quiescent(&batched, &plain);
    }

    #[test]
    fn full_mode_cohorts_batch_into_one_full_solve() {
        let run = |batching: bool| {
            let (t, a, _, b, _) = star();
            let mut sim = NetSim::new(t, 7);
            sim.set_solver_mode(SolverMode::Full);
            sim.set_event_batching(batching);
            for _ in 0..6 {
                sim.start_flow(FlowSpec::new(a, b, 2_000_000));
            }
            let timeline = drain(&mut sim);
            (timeline, sim.stats())
        };
        let (batched_timeline, batched) = run(true);
        let (plain_timeline, plain) = run(false);
        assert_eq!(batched_timeline, plain_timeline);
        // 6 arrival solves + 1 batched completion solve vs 6 + 6.
        assert_eq!(plain.full_solves, 12);
        assert_eq!(batched.full_solves, 7);
        assert_eq!(batched.solves_avoided, 5);
        sim_stats_quiescent(&batched, &plain);
    }

    #[test]
    fn background_churn_batches_and_timeline_is_unchanged() {
        // The grid_workload churn case: background arrivals keep the
        // bottleneck's component hot while bursts of identical user flows
        // arrive and depart together. Batching must cut the solve count
        // without moving a single completion.
        let run = |batching: bool| {
            let (t, a, hub, b, _) = star();
            let mut sim = NetSim::new(t, 23);
            sim.set_event_batching(batching);
            sim.add_background(BackgroundProfile::new(hub, b, 6.0, 800_000.0));
            let mut timeline = Vec::new();
            for burst in 0..4u64 {
                for _ in 0..16 {
                    sim.start_flow(FlowSpec::new(a, b, 500_000 + burst * 100_000));
                }
                let deadline = SimTime::from_secs_f64(10.0 * (burst + 1) as f64);
                for ev in sim.run_until(deadline) {
                    if let EventKind::FlowCompleted(d) = ev.kind {
                        timeline.push((ev.time.as_nanos(), d.id.0, d.bytes));
                    }
                }
            }
            (timeline, sim.stats())
        };
        let (batched_timeline, batched) = run(true);
        let (plain_timeline, plain) = run(false);
        assert_eq!(batched_timeline, plain_timeline);
        assert_eq!(batched_timeline.len(), 64);
        assert!(
            batched.incremental_solves < plain.incremental_solves,
            "batched {} vs plain {}",
            batched.incremental_solves,
            plain.incremental_solves
        );
        assert!(batched.solves_avoided > 0);
        assert!(batched.event_cohorts > 0);
        sim_stats_quiescent(&batched, &plain);
    }

    #[test]
    fn verify_allocation_holds_after_batched_solves() {
        let (t, a, _, b, c) = star();
        let mut sim = NetSim::new(t, 31);
        sim.set_validation(true);
        for _ in 0..8 {
            sim.start_flow(FlowSpec::new(a, b, 1_000_000));
            sim.start_flow(FlowSpec::new(a, c, 1_000_000));
        }
        // Process the same-instant completion cohorts; every batched solve
        // self-certifies (set_validation) and the final state re-certifies
        // from scratch.
        while let Some(ev) = sim.next_event() {
            if matches!(ev.kind, EventKind::FlowCompleted(_)) {
                sim.verify_allocation().expect("certificate after cohort");
            }
        }
        sim.verify_allocation().expect("certificate at quiescence");
    }

    #[test]
    fn slot_reuse_within_a_cohort_resolves_the_new_occupant() {
        // A background arrival inside the same cohort as a completion can
        // reuse the freed slot; the deferred seed must still discover the
        // new occupant's (different) route. Engineer it directly: two
        // identical flows complete together while a background arrival is
        // forced onto the same instant via a zero-latency profile... the
        // simplest deterministic stand-in is a user flow started from a
        // timer-driven driver — timers never defer solves, so instead
        // exercise the path with the drop + restart shape below.
        let (t, a, _, b, c) = star();
        let at = SimTime::from_secs_f64(0.01);
        let mut sim = NetSim::new(t, 3);
        // Connection drop through c at the same instant as a brownout on
        // the a--hub side: one cohort with removals and cap changes.
        let shared = sim.routing().path(a, b).expect("routable").links()[0];
        sim.install_fault_plan(FaultPlan::new().connection_drop(at, c).link_brownout(
            at,
            SimDuration::from_secs(2),
            shared,
            0.5,
        ));
        sim.start_flow(FlowSpec::new(a, b, 3_000_000));
        sim.start_flow(FlowSpec::new(a, c, 3_000_000));
        let timeline = drain(&mut sim);
        // The a->c flow dies silently with the drop; a->b finishes.
        assert_eq!(timeline.len(), 1);
        assert_eq!(timeline[0].2, 3_000_000);
        sim.verify_allocation()
            .expect("certificate after drop cohort");
    }
}

#[cfg(test)]
mod class_tests {
    use super::*;
    use crate::topology::LinkSpec;

    /// a, b, c around one hub; 100 Mbps / 1 ms everywhere.
    fn hub() -> (Topology, NodeId, NodeId, NodeId) {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let c = topo.add_node("c");
        let hub = topo.add_node("hub");
        let spec = || LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_millis(1));
        topo.add_duplex_link(a, hub, spec());
        topo.add_duplex_link(b, hub, spec());
        topo.add_duplex_link(c, hub, spec());
        (topo, a, b, c)
    }

    /// Flow `i` of the 4-class population: a -> b or a -> c, capped at
    /// 20 Mbps or uncapped.
    fn spec(i: usize, a: NodeId, b: NodeId, c: NodeId) -> FlowSpec {
        let dst = if i.is_multiple_of(2) { b } else { c };
        let spec = FlowSpec::new(a, dst, 1_000_000 + (i as u64) * 10_000);
        if i % 4 < 2 {
            spec.with_cap(Bandwidth::from_mbps(20.0))
        } else {
            spec
        }
    }

    #[test]
    fn hub_flows_fill_over_at_most_four_classes() {
        let (topo, a, b, c) = hub();
        let mut sim = NetSim::new(topo, 1);
        let mut last = sim.stats();
        let mut check = |sim: &NetSim| {
            let s = sim.stats();
            let solves = s.incremental_solves - last.incremental_solves;
            let classes = s.solver_classes_touched - last.solver_classes_touched;
            assert!(solves <= 1, "one solve per step");
            assert!(
                classes <= 4 * solves,
                "{classes} classes over {solves} solve(s)"
            );
            last = s;
        };
        for i in 0..256 {
            sim.start_flow(spec(i, a, b, c));
            check(&sim);
        }
        assert_eq!(sim.classes.live(), 4);
        while sim.next_event().is_some() {
            check(&sim);
        }
        let s = sim.stats();
        assert!(s.incremental_solves > 256);
        assert!(s.solver_flows_touched > 30 * s.solver_classes_touched);
        assert_eq!(sim.classes.live(), 0);
    }

    #[test]
    fn full_mode_fills_per_flow() {
        let (topo, a, b, c) = hub();
        let mut sim = NetSim::new(topo, 1);
        sim.set_solver_mode(SolverMode::Full);
        for i in 0..16 {
            sim.start_flow(spec(i, a, b, c));
        }
        while sim.next_event().is_some() {}
        let s = sim.stats();
        assert!(s.full_solves > 0);
        assert_eq!(s.solver_classes_touched, s.solver_flows_touched);
    }

    #[test]
    fn class_table_drains_to_zero_live_classes() {
        let (topo, a, b, c) = hub();
        let mut sim = NetSim::new(topo, 1);
        let ids: Vec<FlowId> = (0..64).map(|i| sim.start_flow(spec(i, a, b, c))).collect();
        assert_eq!(sim.classes.live(), 4);
        // Moving flows between classes re-interns them; an unchanged cap
        // keeps the class.
        assert!(sim.set_flow_cap(ids[0], Bandwidth::from_mbps(7.0)));
        assert!(sim.set_flow_cap(ids[1], Bandwidth::from_mbps(7.0)));
        assert_eq!(sim.classes.live(), 6);
        assert!(sim.set_flow_cap(ids[0], Bandwidth::from_mbps(7.0)));
        assert_eq!(sim.classes.live(), 6);
        assert!(sim.set_flow_cap(ids[0], Bandwidth::from_mbps(20.0)));
        assert_eq!(sim.classes.live(), 5);
        let bound = sim.classes.id_bound();
        sim.abort_flow(ids[1]);
        assert_eq!(sim.classes.live(), 4);
        // A released id is reused before the table grows.
        sim.start_flow(FlowSpec::new(b, c, 1_000).with_cap(Bandwidth::from_mbps(3.0)));
        assert_eq!(sim.classes.id_bound(), bound);
        while sim.next_event().is_some() {}
        assert_eq!(sim.active_flow_count(), 0);
        assert_eq!(sim.classes.live(), 0);
        sim.shrink_scratch();
        assert_eq!(sim.classes.id_bound(), 0);
        assert_eq!(sim.classes.footprint(), 0);
    }
}

#[cfg(test)]
mod uncongested_tests {
    use super::*;
    use crate::topology::LinkSpec;
    use proptest::prelude::*;

    fn bps(b: f64) -> Bandwidth {
        Bandwidth::from_bps(b)
    }

    /// Two nodes joined by a duplex link of `capacity` bps each way;
    /// returns the `a -> b` direction too.
    fn pair(capacity: f64) -> (NetSim, NodeId, NodeId, LinkId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let (ab, _) = t.add_duplex_link(
            a,
            b,
            LinkSpec::new(bps(capacity), SimDuration::from_millis(1)),
        );
        let mut sim = NetSim::new(t, 1);
        sim.set_validation(true);
        (sim, a, b, ab)
    }

    fn capped(sim: &mut NetSim, src: NodeId, dst: NodeId, cap: f64) -> FlowId {
        sim.start_flow(FlowSpec::new(src, dst, 100_000_000).with_cap(bps(cap)))
    }

    fn rate(sim: &NetSim, id: FlowId) -> f64 {
        sim.flow_rate(id).expect("flow is live").as_bps()
    }

    /// `(fills, uncongested resolutions)` so far.
    fn passes(sim: &NetSim) -> (u64, u64) {
        (sim.stats.incremental_solves, sim.stats.uncongested_solves)
    }

    #[test]
    fn queue_entries_are_32_bytes() {
        assert_eq!(std::mem::size_of::<crate::event::Entry<Internal>>(), 32);
    }

    #[test]
    fn bottlenecked_flow_regains_exactly_its_cap_then_arrivals_skip_the_fill() {
        let (mut sim, a, b, _) = pair(100e6);
        let x = capped(&mut sim, a, b, 80e6);
        assert_eq!(passes(&sim), (0, 1));
        let y = capped(&mut sim, a, b, 80e6);
        assert_eq!(
            passes(&sim),
            (1, 1),
            "160 Mbps of caps on 100 Mbps is tight"
        );
        assert_eq!(rate(&sim, x), 50e6);
        sim.abort_flow(y);
        // No link is tight any more, but `x` still runs below its cap: the
        // fill must run once more.
        assert_eq!(passes(&sim), (2, 1));
        assert_eq!(rate(&sim, x).to_bits(), 80e6f64.to_bits());
        assert!(sim.all_at_caps && sim.tight_links == 0);
        let z = capped(&mut sim, a, b, 10e6);
        assert_eq!(passes(&sim), (2, 2));
        assert_eq!(rate(&sim, z), 10e6);
        assert_eq!(rate(&sim, x), 80e6);
    }

    #[test]
    fn cap_sum_at_capacity_takes_the_fill() {
        // The caps sum to exactly the capacity. The fill saturates the
        // link at 5e7 and leaves `y` 0.0625 bps below its cap, an answer
        // "every flow at its cap" would get wrong: the margin must keep
        // such a link tight.
        let (mut sim, a, b, _) = pair(1e8 + 0.0625);
        let _x = capped(&mut sim, a, b, 5e7);
        let y = capped(&mut sim, a, b, 5e7 + 0.0625);
        assert_eq!(passes(&sim), (1, 1));
        assert_eq!(rate(&sim, y), 5e7);
    }

    #[test]
    fn cap_changes_cross_the_margin_both_ways() {
        // Tight above 1e8 · (1 − 1e-6) = 99,999,900 bps of caps.
        let (mut sim, a, b, _) = pair(100e6);
        let _x = capped(&mut sim, a, b, 50e6);
        let y = capped(&mut sim, a, b, 49_999_800.0);
        assert_eq!(passes(&sim), (0, 2));
        assert!(sim.set_flow_cap(y, bps(49_999_950.0)));
        assert_eq!(passes(&sim), (1, 2), "crossing up into the margin fills");
        assert_eq!(sim.tight_links, 1);
        assert_eq!(rate(&sim, y), 49_999_950.0);
        assert!(sim.set_flow_cap(y, bps(49_999_800.0)));
        assert_eq!(passes(&sim), (2, 2), "the first step back out still fills");
        assert_eq!(sim.tight_links, 0);
        assert!(sim.set_flow_cap(y, bps(49_999_700.0)));
        assert_eq!(passes(&sim), (2, 3));
        assert_eq!(rate(&sim, y), 49_999_700.0);
    }

    #[test]
    fn unbounded_flows_and_sub_bps_links_always_fill() {
        // An uncapped flow makes its links tight.
        let (mut sim, a, b, _) = pair(100e6);
        let x = sim.start_flow(FlowSpec::new(a, b, 1_000_000));
        assert_eq!(passes(&sim), (1, 0));
        assert_eq!(rate(&sim, x), 100e6);
        // A zero-capacity link carrying a zero-cap flow.
        let (mut sim, a, b, _) = pair(0.0);
        let x = capped(&mut sim, a, b, 0.0);
        assert_eq!(passes(&sim), (1, 0));
        assert_eq!(rate(&sim, x), 0.0);
        // A link below 1 bps.
        let (mut sim, a, b, _) = pair(0.5);
        let x = capped(&mut sim, a, b, 0.1);
        assert_eq!(passes(&sim), (1, 0));
        assert_eq!(rate(&sim, x), 0.1);
        // An empty route crosses no link, so it never is tight.
        let (mut sim, a, _, _) = pair(100e6);
        let x = capped(&mut sim, a, a, 5e6);
        assert_eq!(passes(&sim), (0, 1));
        assert_eq!(rate(&sim, x), 5e6);
        // Its departure seeds no link: no solve either way.
        sim.abort_flow(x);
        assert_eq!(passes(&sim), (0, 1));
    }

    #[test]
    fn brownout_makes_links_tight_until_it_clears() {
        let (mut sim, a, b, ab) = pair(100e6);
        let ba = sim.routing().path(b, a).expect("duplex").links()[0];
        let s = SimDuration::from_secs;
        sim.install_fault_plan(
            FaultPlan::new()
                .link_brownout(SimTime::ZERO + s(1), s(1), ab, 0.5)
                .link_brownout(SimTime::ZERO + s(1), s(2), ba, 1e-9),
        );
        let x = capped(&mut sim, a, b, 40e6);
        let _y = capped(&mut sim, a, b, 40e6);
        assert_eq!(passes(&sim), (0, 2));
        sim.run_until(SimTime::from_secs_f64(1.5));
        // 80 Mbps of caps on 50 Mbps; the idle reverse link, now at
        // 0.1 bps, is not tight until a flow crosses it.
        assert_eq!(sim.tight_links, 1);
        assert_eq!(rate(&sim, x), 25e6);
        let back = capped(&mut sim, b, a, 1e6);
        assert_eq!(sim.tight_links, 2);
        assert_eq!(rate(&sim, back), 0.1);
        sim.run_until(SimTime::from_secs_f64(2.5));
        assert_eq!(sim.tight_links, 1);
        assert_eq!(rate(&sim, x), 40e6);
        sim.run_until(SimTime::from_secs_f64(3.5));
        assert!(sim.tight_links == 0 && sim.all_at_caps);
        assert_eq!(rate(&sim, back), 1e6);
        let before = passes(&sim);
        let z = capped(&mut sim, a, b, 10e6);
        assert_eq!(passes(&sim), (before.0, before.1 + 1));
        assert_eq!(rate(&sim, z), 10e6);
    }

    /// Sources `s0..s2` and sinks `d0..d1` on both sides of one shared
    /// middle link, edges at 1 Gbps.
    fn dumbbell(middle: f64) -> (NetSim, Vec<NodeId>) {
        let mut t = Topology::new();
        let h1 = t.add_node("h1");
        let h2 = t.add_node("h2");
        let ms = SimDuration::from_millis(2);
        t.add_duplex_link(h1, h2, LinkSpec::new(bps(middle), ms));
        let mut ends = Vec::new();
        for (i, hub) in [h1, h1, h1, h2, h2].into_iter().enumerate() {
            let n = t.add_node(format!("n{i}"));
            t.add_duplex_link(n, hub, LinkSpec::new(bps(1e9), ms));
            ends.push(n);
        }
        (NetSim::new(t, 7), ends)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random arrivals, aborts, cap changes, cohorts and time steps
        /// with validation on: every uncongested resolution runs the
        /// shadow fill, which panics on any rate the fill would not
        /// give, and every resolution is certified.
        #[test]
        fn churn_under_validation_matches_the_fill(
            middle in 5e6f64..200e6,
            ops in proptest::collection::vec(
                (0u8..6, 0usize..25, 0usize..25, 0.0f64..40e6, 0u64..400),
                1..80,
            ),
        ) {
            let (mut sim, ends) = dumbbell(middle);
            sim.set_validation(true);
            let mut live: Vec<FlowId> = Vec::new();
            let spec = |i: usize, j: usize, cap: f64| {
                let f = FlowSpec::new(ends[i % 5], ends[j % 5], 2_000_000);
                // One flow in seven is uncapped (node-local flows never
                // are: their rate would be infinite).
                if i.is_multiple_of(7) && i % 5 != j % 5 { f } else { f.with_cap(bps(cap)) }
            };
            for (op, i, j, cap, ms) in ops {
                match op {
                    0 | 1 => live.push(sim.start_flow(spec(i, j, cap))),
                    2 if !live.is_empty() => {
                        sim.abort_flow(live.swap_remove(i % live.len()));
                    }
                    3 if !live.is_empty() => {
                        sim.set_flow_cap(live[i % live.len()], bps(cap));
                    }
                    4 => sim.batched(|sim| {
                        live.push(sim.start_flow(spec(i, j, cap)));
                        live.push(sim.start_flow(spec(j, i, cap / 2.0)));
                        if live.len() > 2 {
                            sim.set_flow_cap(live[j % (live.len() - 2)], bps(cap / 3.0));
                        }
                    }),
                    _ => {
                        sim.run_until(sim.now() + SimDuration::from_millis(ms));
                        live.retain(|&id| sim.flow_rate(id).is_some());
                    }
                }
            }
            prop_assert!(sim.verify_allocation().is_ok());
            while sim.next_event().is_some() {}
            let s = sim.stats();
            prop_assert_eq!(
                s.transitions_certified,
                s.incremental_solves + s.uncongested_solves
            );
        }
    }
}

#[cfg(test)]
mod walk_tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::topology::LinkSpec;
    use proptest::prelude::*;

    impl NetSim {
        /// Checks the walk in `self.comp` against a per-flow reference:
        /// the breadth-first closure of the same seeds (the members of
        /// the seeded classes and the seeded links) over every live flow
        /// must reach the same flows and links, and a per-flow fill over
        /// them must give every member its current rate bit for bit.
        pub(super) fn audit_walk(&self) {
            let (seed_classes, seed_links) = &self.comp.seeds;
            let route = |s: u32| self.flows[s as usize].as_ref().expect("live").route.clone();
            let mut flows: BTreeSet<u32> = seed_classes
                .iter()
                .flat_map(|&c| self.classes.members(c))
                .collect();
            let mut links: BTreeSet<u32> = seed_links.iter().copied().collect();
            links.extend(
                flows
                    .iter()
                    .flat_map(|&s| route(s).iter().map(|l| l.0).collect::<Vec<_>>()),
            );
            loop {
                let reached: Vec<u32> = (0..slot_u32(self.flows.len()))
                    .filter(|&s| {
                        self.flows[s as usize].as_ref().is_some_and(|f| {
                            !flows.contains(&s) && f.route.iter().any(|l| links.contains(&l.0))
                        })
                    })
                    .collect();
                if reached.is_empty() {
                    break;
                }
                for s in reached {
                    flows.insert(s);
                    links.extend(route(s).iter().map(|l| l.0));
                }
            }
            let walked: BTreeSet<u32> = self
                .comp
                .classes
                .iter()
                .flat_map(|&c| self.classes.members(c))
                .collect();
            assert_eq!(walked, flows, "the class walk reached other flows");
            let walked: BTreeSet<u32> = self.comp.links.iter().copied().collect();
            assert_eq!(walked, links, "the class walk reached other links");
            let order: Vec<u32> = flows.into_iter().collect();
            let links: Vec<u32> = links.into_iter().collect();
            let mut solver = MaxMinSolver::new();
            let fill = solver.solve_with(
                order.len(),
                |i| {
                    self.flows[order[i] as usize]
                        .as_ref()
                        .expect("live")
                        .route
                        .as_ref()
                },
                |i| {
                    self.flows[order[i] as usize]
                        .as_ref()
                        .expect("live")
                        .cap_bps
                },
                |_| 1,
                &links,
                &self.link_caps,
            );
            for (i, &s) in order.iter().enumerate() {
                let f = self.flows[s as usize].as_ref().expect("live");
                assert_eq!(
                    f.rate_bps.to_bits(),
                    fill[i].to_bits(),
                    "flow {} runs at {} bps; the per-flow fill gives {}",
                    f.id,
                    f.rate_bps,
                    fill[i]
                );
            }
        }
    }

    fn mbps(m: f64) -> Bandwidth {
        Bandwidth::from_mbps(m)
    }

    /// Hubs `h1`, `h2` joined by a middle link, three ends on `h1` and
    /// two on `h2`; edges at 100 Mbps.
    fn dumbbell(middle: f64) -> (NetSim, Vec<NodeId>, LinkId) {
        let mut t = Topology::new();
        let h1 = t.add_node("h1");
        let h2 = t.add_node("h2");
        let ms = SimDuration::from_millis(2);
        let (mid, _) = t.add_duplex_link(h1, h2, LinkSpec::new(mbps(middle), ms));
        let mut ends = Vec::new();
        for (i, hub) in [h1, h1, h1, h2, h2].into_iter().enumerate() {
            let n = t.add_node(format!("n{i}"));
            t.add_duplex_link(n, hub, LinkSpec::new(mbps(100.0), ms));
            ends.push(n);
        }
        let mut sim = NetSim::new(t, 11);
        sim.set_validation(true);
        (sim, ends, mid)
    }

    #[test]
    fn uncapped_node_local_flow_reads_and_aborts() {
        let (mut sim, ends, _) = dumbbell(50.0);
        let local = sim.start_flow(FlowSpec::new(ends[0], ends[0], 1 << 30));
        let rate = sim.flow_rate(local).expect("live");
        assert_eq!(rate.as_bps(), NODE_LOCAL_BPS);
        let progress = sim.abort_flow(local).expect("live");
        assert_eq!(progress.rate, rate);
        assert_eq!(sim.active_flow_count(), 0);
    }

    #[test]
    fn caller_started_background_flows_keep_their_ids() {
        let (mut sim, ends, _) = dumbbell(50.0);
        let spec = FlowSpec::new(ends[0], ends[3], 1 << 30).with_tag(FlowTag::Background);
        let bg = sim.start_flow(spec);
        assert_eq!(sim.flow_rate(bg).expect("keyed").as_bps(), 50e6);
        assert!(sim.set_flow_cap(bg, mbps(20.0)));
        let progress = sim.abort_flow(bg).expect("keyed");
        assert_eq!(progress.rate.as_bps(), 20e6);
        assert!(sim.id_slots.is_empty());
    }

    #[test]
    fn engine_background_arrivals_take_no_id_entry() {
        let (mut sim, ends, _) = dumbbell(50.0);
        sim.add_background(BackgroundProfile {
            src: ends[1],
            dst: ends[4],
            arrival_rate_hz: 20.0,
            mean_size_bytes: 4e6,
            size_sigma: 0.5,
            flow_cap: Some(mbps(10.0)),
        });
        let user = sim.start_flow(FlowSpec::new(ends[0], ends[3], 50_000_000));
        sim.run_until(SimTime::from_secs_f64(2.0));
        assert!(sim.stats().background_flows_started > 10);
        assert!(sim.active_flow_count() > 1);
        assert_eq!(sim.id_slots.len(), 1);
        assert!(sim.id_slots.contains_key(&user));
    }

    #[test]
    fn class_id_and_slot_reused_inside_a_cohort_take_the_new_route() {
        let (mut sim, ends, _) = dumbbell(50.0);
        let shared = sim.start_flow(FlowSpec::new(ends[1], ends[3], 1 << 30));
        let gone = sim.start_flow(FlowSpec::new(ends[0], ends[3], 1 << 30));
        let (class, slot) = (sim.classes.id_bound() - 1, sim.id_slots[&gone]);
        let fresh = sim.batched(|sim| {
            sim.abort_flow(gone);
            // Another route, another key: the released id and slot return.
            sim.start_flow(FlowSpec::new(ends[4], ends[1], 1 << 30).with_cap(mbps(10.0)))
        });
        assert_eq!(sim.id_slots[&fresh], slot);
        assert_eq!(
            sim.flows[slot as usize].as_ref().expect("live").class as usize,
            class
        );
        assert_eq!(sim.flow_rate(fresh).expect("live").as_bps(), 10e6);
        assert_eq!(sim.flow_rate(shared).expect("live").as_bps(), 50e6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random starts, aborts, completions, re-caps, cohorts, a
        /// brownout and a connection drop, with validation on: after
        /// every fill and every uncongested resolution the class walk
        /// matches the per-flow reference (see `audit_walk`). Caps come
        /// from a short list, so classes hold many members; a cohort
        /// releases a class and a slot and re-uses both at once.
        #[test]
        fn class_walk_matches_the_per_flow_walk(
            middle in 20.0f64..150.0,
            brownout in 0u64..2_000,
            drop_at in 0u64..2_000,
            drop_end in 0usize..5,
            ops in proptest::collection::vec(
                (0u8..7, 0usize..25, 0usize..25, 0usize..5, 0u64..300),
                1..80,
            ),
        ) {
            let (mut sim, ends, mid) = dumbbell(middle);
            let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
            sim.install_fault_plan(
                FaultPlan::new()
                    .link_brownout(at(brownout), SimDuration::from_millis(700), mid, 0.3)
                    .connection_drop(at(drop_at), ends[drop_end]),
            );
            const CAPS: [f64; 5] = [4.0, 9.0, 25.0, 60.0, f64::INFINITY];
            let spec = |i: usize, j: usize, cap: usize| {
                let f = FlowSpec::new(ends[i % 5], ends[j % 5], 1_000_000 + 10_000 * (i as u64));
                if CAPS[cap].is_finite() { f.with_cap(mbps(CAPS[cap])) } else { f }
            };
            let mut live: Vec<FlowId> = Vec::new();
            for (op, i, j, cap, ms) in ops {
                match op {
                    0 | 1 => live.push(sim.start_flow(spec(i, j, cap))),
                    2 if !live.is_empty() => {
                        sim.abort_flow(live.swap_remove(i % live.len()));
                    }
                    3 if !live.is_empty() => {
                        let cap = CAPS[cap].min(80.0);
                        sim.set_flow_cap(live[i % live.len()], mbps(cap));
                    }
                    4 if !live.is_empty() => sim.batched(|sim| {
                        // The aborted flow's slot, and its class id when
                        // it was the class's last member, go to a flow of
                        // a fresh class.
                        sim.abort_flow(live.swap_remove(i % live.len()));
                        let fresh = FlowSpec::new(ends[j % 5], ends[i % 5], 3_000_000)
                            .with_cap(mbps(1.0 + (ms % 7) as f64));
                        live.push(sim.start_flow(fresh));
                        live.push(sim.start_flow(spec(j, i, cap)));
                        let k = j % live.len();
                        sim.set_flow_cap(live[k], mbps(CAPS[(cap + 1) % 4]));
                    }),
                    _ => {
                        sim.run_until(sim.now() + SimDuration::from_millis(ms));
                        live.retain(|&id| sim.flow_rate(id).is_some());
                    }
                }
            }
            while sim.next_event().is_some() {}
            let s = sim.stats();
            prop_assert_eq!(
                s.transitions_certified,
                s.incremental_solves + s.uncongested_solves
            );
            prop_assert_eq!(sim.classes.live(), 0);
        }
    }
}
