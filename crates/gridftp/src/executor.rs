//! Event-driven transfer execution.
//!
//! A [`TransferSession`] walks a transfer through its protocol phases on a
//! [`NetSim`]: the control-channel script (with GSI for GridFTP), the TCP
//! slow-start ramp, the data phase (one flow per stream, per stripe
//! server), and the trailing completion reply. Sessions are state machines
//! fed with simulation events, so many sessions — and unrelated activity
//! like monitoring probes — can share one simulator. Use
//! [`run_transfer`] / [`run_striped_transfer`] when the transfer is the
//! only foreground activity.

#![cfg_attr(
    not(test),
    expect(
        clippy::expect_used,
        reason = "sessions have at least one source, phase records are appended in protocol order, and run_striped_transfer polls only while its session holds pending work"
    )
)]
#![cfg_attr(
    not(test),
    expect(
        clippy::panic,
        reason = "unexpected event in a protocol state is a simulation bug, failing fast is deliberate"
    )
)]

use datagrid_simnet::engine::{EventKind, FlowId, FlowSpec, NetSim, SimEvent};
use datagrid_simnet::tcp::TcpParams;
use datagrid_simnet::time::{SimDuration, SimTime};
use datagrid_simnet::topology::{Bandwidth, NodeId};

use crate::error::TransferError;
use crate::gsi::GsiConfig;
use crate::mode::TransferMode;
use crate::session::ControlScript;
use crate::transfer::{PhaseRecord, TransferOutcome, TransferRequest};

/// Endpoint resource limits for one side of a transfer.
///
/// The Data Grid layer derives these from the simulated host (disk
/// availability from the I/O load process, CPU headroom from the CPU load
/// process); tests and benches can use [`TransferEndpoint::unconstrained`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferEndpoint {
    /// The topology node.
    pub node: NodeId,
    /// Read rate currently available from this endpoint's disk.
    pub disk_read: Bandwidth,
    /// Write rate currently available to this endpoint's disk.
    pub disk_write: Bandwidth,
    /// Fraction of one core free for protocol processing, in `(0, 1]`.
    pub cpu_headroom: f64,
    /// Relative compute power (cores × GHz).
    pub compute_index: f64,
}

impl TransferEndpoint {
    /// Creates an endpoint with explicit limits.
    ///
    /// # Panics
    ///
    /// Panics if `compute_index` is not strictly positive.
    pub fn new(
        node: NodeId,
        disk_read: Bandwidth,
        disk_write: Bandwidth,
        cpu_headroom: f64,
        compute_index: f64,
    ) -> Self {
        assert!(compute_index > 0.0, "compute index must be positive");
        TransferEndpoint {
            node,
            disk_read,
            disk_write,
            // A fully loaded host still trickles; clamp away from zero so
            // transfers always terminate.
            cpu_headroom: cpu_headroom.clamp(0.02, 1.0),
            compute_index,
        }
    }

    /// An endpoint whose disks and CPU never constrain the network.
    pub fn unconstrained(node: NodeId) -> Self {
        TransferEndpoint::new(
            node,
            Bandwidth::from_gbps(100.0),
            Bandwidth::from_gbps(100.0),
            1.0,
            16.0,
        )
    }

    /// The protocol-processing rate this endpoint can sustain.
    fn cpu_rate(&self, costs: &ProtocolCosts) -> Bandwidth {
        Bandwidth::from_bps(
            costs.proc_rate_per_index.as_bps() * self.compute_index * self.cpu_headroom,
        )
    }
}

/// Protocol CPU cost constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolCosts {
    /// GSI handshake parameters.
    pub gsi: GsiConfig,
    /// Protocol processing throughput per compute-index unit at full
    /// headroom (copy + checksum + syscalls). A 2 GHz single core moves
    /// roughly 150 MB/s through a 2005 GridFTP server.
    pub proc_rate_per_index: Bandwidth,
    /// Extra relative CPU cost of MODE E block handling.
    pub mode_e_cpu_penalty: f64,
    /// Extra relative CPU cost of `PROT S` (per-block MAC; SHA-1 class
    /// hashing is cheap next to the copy path).
    pub integrity_cpu_penalty: f64,
    /// Extra relative CPU cost of `PROT P` (encryption + MAC). 2005-era
    /// GSI privacy means software 3DES at roughly 8 MB/s per GHz — an
    /// order of magnitude below the plain copy path.
    pub privacy_cpu_penalty: f64,
}

impl Default for ProtocolCosts {
    fn default() -> Self {
        ProtocolCosts {
            gsi: GsiConfig::default(),
            proc_rate_per_index: Bandwidth::from_bps(75.0 * 8e6), // 75 MB/s per index
            mode_e_cpu_penalty: 0.05,
            integrity_cpu_penalty: 1.0,
            privacy_cpu_penalty: 9.0,
        }
    }
}

/// Progress of a [`TransferSession`].
#[derive(Debug, Clone, PartialEq)]
pub enum SessionStatus {
    /// More events are needed.
    InProgress,
    /// The transfer finished; here is the outcome.
    Complete(TransferOutcome),
    /// The transfer stalled past its stall timeout (see
    /// [`TransferSession::with_stall_timeout`]) and tore itself down.
    Failed(TransferFailure),
}

/// Why and where a session gave up (see [`SessionStatus::Failed`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferFailure {
    /// Payload bytes of this attempt already committed by restart markers
    /// when the session was torn down.
    pub delivered_payload: u64,
    /// `true` when the transfer ran in MODE E, whose per-block restart
    /// markers let a new session resume from `delivered_payload`. Stream
    /// mode has no markers: a retry restarts from byte zero.
    pub resumable: bool,
    /// When the stall was declared.
    pub at: SimTime,
}

impl TransferFailure {
    /// The byte offset a retry should resume from: the committed payload
    /// for a MODE E transfer, zero for stream mode.
    pub fn restart_offset(&self) -> u64 {
        if self.resumable {
            self.delivered_payload
        } else {
            0
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    Control,
    RampUp,
    Data,
    Completion,
    Done,
}

/// An in-flight transfer: an event-driven state machine over a [`NetSim`].
///
/// Drive it by calling [`TransferSession::start`] once and then feeding it
/// every simulation event it [owns](TransferSession::owns) until it reports
/// [`SessionStatus::Complete`].
#[derive(Debug, Clone)]
pub struct TransferSession {
    req: TransferRequest,
    sources: Vec<TransferEndpoint>,
    dst: TransferEndpoint,
    tcp: TcpParams,
    costs: ProtocolCosts,
    control_node: NodeId,
    cached_control: bool,
    token_base: u64,
    /// When set, a watchdog timer fires every interval during the data
    /// phase; if every data flow has stalled (zero rate) the session fails.
    stall_timeout: Option<SimDuration>,
    state: State,
    started: SimTime,
    phases: Vec<PhaseRecord>,
    /// Active data flows and what each is carrying, in start order: the
    /// order re-caps and aborts reach the engine, where it breaks
    /// completion ties.
    active_flows: Vec<(FlowId, StreamFlow)>,
    /// Payload bytes fully delivered by already-completed streams.
    completed_payload: u64,
    wire_bytes: u64,
}

/// Bookkeeping for one in-flight data stream.
#[derive(Debug, Clone, Copy)]
struct StreamFlow {
    /// Index of the stripe source feeding this stream.
    source: usize,
    /// Payload bytes assigned to this stream.
    payload: u64,
    /// Wire bytes (payload + framing) assigned to this stream.
    wire: u64,
}

impl TransferSession {
    const TOK_CONTROL: u64 = 0;
    const TOK_RAMP: u64 = 1;
    const TOK_COMPLETION: u64 = 2;
    const TOK_WATCHDOG: u64 = 3;
    /// Tokens consumed per session; callers allocating token ranges for
    /// several sessions should space bases at least this far apart.
    pub const TOKENS_PER_SESSION: u64 = 4;

    /// Plans a client-initiated retrieval from `src` to `dst` (the client
    /// runs on the destination, as in `globus-url-copy` pulling a file).
    ///
    /// `token_base` is the first of [`Self::TOKENS_PER_SESSION`] timer
    /// tokens the session may use on the simulator.
    ///
    /// # Errors
    ///
    /// Any [`TransferError`] from [`TransferRequest::validate`].
    pub fn new(
        req: TransferRequest,
        src: TransferEndpoint,
        dst: TransferEndpoint,
        tcp: TcpParams,
        token_base: u64,
    ) -> Result<Self, TransferError> {
        Self::striped(req, vec![src], dst, tcp, token_base)
    }

    /// Plans a striped retrieval from several stripe servers, each opening
    /// the request's stream count (the GridFTP striped-transfer extension
    /// the paper names as future work).
    ///
    /// # Errors
    ///
    /// [`TransferError::InvalidRequest`] when `sources` is empty or plain
    /// FTP is asked to stripe, plus anything from
    /// [`TransferRequest::validate`].
    pub fn striped(
        req: TransferRequest,
        sources: Vec<TransferEndpoint>,
        dst: TransferEndpoint,
        tcp: TcpParams,
        token_base: u64,
    ) -> Result<Self, TransferError> {
        req.validate()?;
        if sources.is_empty() {
            return Err(TransferError::InvalidRequest {
                reason: "a transfer needs at least one source".into(),
            });
        }
        if sources.len() > 1 && req.protocol == crate::transfer::Protocol::Ftp {
            return Err(TransferError::InvalidRequest {
                reason: "plain FTP cannot use striped servers".into(),
            });
        }
        let control_node = dst.node;
        Ok(TransferSession {
            req,
            sources,
            dst,
            tcp,
            costs: ProtocolCosts::default(),
            control_node,
            cached_control: false,
            token_base,
            stall_timeout: None,
            state: State::Idle,
            started: SimTime::ZERO,
            phases: Vec::new(),
            active_flows: Vec::new(),
            completed_payload: 0,
            wire_bytes: 0,
        })
    }

    /// Makes this a third-party transfer orchestrated from `client`: the
    /// control channels run from `client` to both endpoints while the data
    /// flows directly source → destination (a GridFTP feature the paper
    /// lists; the client only pays control latency).
    pub fn with_control_from(mut self, client: NodeId) -> Self {
        self.control_node = client;
        self
    }

    /// Marks the control connection as already open and authenticated
    /// (GridFTP clients cache control channels between transfers to the
    /// same server): the session skips TCP connect, banner and the GSI
    /// handshake, paying only per-transfer negotiation.
    pub fn with_cached_control(mut self, cached: bool) -> Self {
        self.cached_control = cached;
        self
    }

    /// Overrides the protocol cost constants.
    pub fn with_costs(mut self, costs: ProtocolCosts) -> Self {
        self.costs = costs;
        self
    }

    /// Arms a stall watchdog: during the data phase a timer fires every
    /// `timeout`; if at that instant *every* data flow is rate-zero (link
    /// down, host blacked out, connection reset) the session aborts its
    /// flows and reports [`SessionStatus::Failed`] carrying the restart
    /// marker. Detection latency is therefore at most one `timeout`.
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is zero.
    pub fn with_stall_timeout(mut self, timeout: SimDuration) -> Self {
        assert!(!timeout.is_zero(), "stall timeout must be positive");
        self.stall_timeout = Some(timeout);
        self
    }

    /// The request being executed.
    pub fn request(&self) -> &TransferRequest {
        &self.req
    }

    /// Begins the session: schedules the control-phase timer.
    ///
    /// # Panics
    ///
    /// Panics if called twice, or if any endpoint pair is unroutable.
    pub fn start(&mut self, sim: &mut NetSim) {
        assert_eq!(self.state, State::Idle, "session already started");
        self.started = sim.now();
        // Control channel runs to the farthest stripe server.
        let control_rtt = self
            .sources
            .iter()
            .map(|s| sim.rtt(self.control_node, s.node))
            .max()
            .expect("at least one source");
        let script = if self.cached_control {
            ControlScript::retrieve_cached(
                self.req.effective_mode(),
                self.req.parallelism,
                self.req.protection,
            )
        } else {
            ControlScript::retrieve(
                self.req.protocol,
                self.req.effective_mode(),
                self.req.parallelism,
                self.req.protection,
            )
        };
        let server_index = self
            .sources
            .iter()
            .map(|s| s.compute_index)
            .fold(f64::INFINITY, f64::min);
        let control = script.duration(
            control_rtt,
            &self.costs.gsi,
            self.dst.compute_index,
            server_index,
        );
        self.state = State::Control;
        sim.schedule_timer_after(control, self.token_base + Self::TOK_CONTROL);
    }

    /// Ids of the data flows currently in flight, in start order.
    pub fn active_flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.active_flows.iter().map(|&(id, _)| id)
    }

    /// `true` if this event belongs to this session: a timer or data-flow
    /// completion carrying a token of the session's range.
    pub fn owns(&self, event: &SimEvent) -> bool {
        let token = match &event.kind {
            EventKind::TimerFired(token) => *token,
            EventKind::FlowCompleted(done) => done.token,
            // Fault transitions are broadcast; the driver decides what one
            // means for the session (a stall for the watchdog, if armed, or
            // a data flow lost to a connection drop).
            EventKind::FaultChanged(_) => return false,
        };
        (self.token_base..self.token_base + Self::TOKENS_PER_SESSION).contains(&token)
    }

    /// Feeds one owned event; returns the session status.
    ///
    /// # Panics
    ///
    /// Panics when fed an event the session does not own (use
    /// [`TransferSession::owns`] to route events) or when called before
    /// [`TransferSession::start`].
    pub fn handle(&mut self, sim: &mut NetSim, event: &SimEvent) -> SessionStatus {
        assert!(self.owns(event), "event does not belong to this session");
        // The watchdog token is handled out of band: it may legitimately
        // fire in any state (it re-arms during data and goes stale after).
        if event.kind == EventKind::TimerFired(self.token_base + Self::TOK_WATCHDOG) {
            return self.handle_watchdog(sim, event.time);
        }
        match (&self.state, &event.kind) {
            (State::Control, EventKind::TimerFired(_)) => {
                self.phases.push(PhaseRecord {
                    name: "control",
                    start: self.started,
                    end: event.time,
                });
                // TCP slow start: all streams ramp concurrently, so the
                // transfer pays one penalty on the slowest (max-RTT) path.
                let ramp = self
                    .sources
                    .iter()
                    .map(|s| {
                        let rtt = sim.rtt(s.node, self.dst.node);
                        self.tcp.startup_penalty_on(rtt)
                    })
                    .max()
                    .expect("at least one source");
                self.state = State::RampUp;
                sim.schedule_timer_after(ramp, self.token_base + Self::TOK_RAMP);
                SessionStatus::InProgress
            }
            (State::RampUp, EventKind::TimerFired(_)) => {
                self.start_data_flows(sim);
                self.state = State::Data;
                if let Some(timeout) = self.stall_timeout {
                    sim.schedule_timer_after(timeout, self.token_base + Self::TOK_WATCHDOG);
                }
                // Mark the data phase as starting at control end (the ramp
                // is part of moving data).
                let data_start = self.phases.last().expect("control recorded").end;
                self.phases.push(PhaseRecord {
                    name: "data",
                    start: data_start,
                    end: data_start, // patched on completion
                });
                // Zero-byte payloads may have produced flows that complete
                // instantly; if nothing is active the data phase is done.
                if self.active_flows.is_empty() {
                    self.finish_data(sim, event.time);
                }
                SessionStatus::InProgress
            }
            (State::Data, EventKind::FlowCompleted(done)) => {
                if let Some(i) = self.active_flows.iter().position(|&(id, _)| id == done.id) {
                    self.completed_payload += self.active_flows.remove(i).1.payload;
                }
                if self.active_flows.is_empty() {
                    self.finish_data(sim, event.time);
                }
                SessionStatus::InProgress
            }
            (State::Completion, EventKind::TimerFired(_)) => {
                let data_end = self.phases.last().expect("data recorded").end;
                self.phases.push(PhaseRecord {
                    name: "completion",
                    start: data_end,
                    end: event.time,
                });
                self.state = State::Done;
                SessionStatus::Complete(TransferOutcome {
                    payload_bytes: self.req.payload_bytes(),
                    wire_bytes: self.wire_bytes,
                    streams: self.req.streams(),
                    stripes: u32::try_from(self.sources.len()).expect("few stripes"),
                    started: self.started,
                    finished: event.time,
                    phases: self.phases.clone(),
                })
            }
            (state, kind) => panic!("unexpected event {kind:?} in state {state:?}"),
        }
    }

    /// One watchdog tick. In the data phase: declare failure if every flow
    /// has stalled, otherwise re-arm. In any other state the tick is stale
    /// (the phase it guarded already ended) and is ignored.
    fn handle_watchdog(&mut self, sim: &mut NetSim, now: SimTime) -> SessionStatus {
        if self.state != State::Data {
            return SessionStatus::InProgress;
        }
        let stalled = !self.active_flows.is_empty()
            && self
                .active_flows
                .iter()
                .all(|&(id, _)| sim.flow_rate(id).is_none_or(|r| r.as_bps() <= 1e-6));
        if stalled {
            let resumable = self.req.effective_mode().is_extended();
            let delivered_payload = self.abort(sim);
            return SessionStatus::Failed(TransferFailure {
                delivered_payload,
                resumable,
                at: now,
            });
        }
        if let Some(timeout) = self.stall_timeout {
            sim.schedule_timer_after(timeout, self.token_base + Self::TOK_WATCHDOG);
        }
        SessionStatus::InProgress
    }

    fn finish_data(&mut self, sim: &mut NetSim, now: SimTime) {
        let data = self.phases.last_mut().expect("data phase recorded");
        debug_assert_eq!(data.name, "data");
        data.end = now;
        self.state = State::Completion;
        let rtt = sim.rtt(self.control_node, self.sources[0].node);
        let reply = ControlScript::completion().duration(
            rtt,
            &self.costs.gsi,
            self.dst.compute_index,
            self.sources[0].compute_index,
        );
        sim.schedule_timer_after(reply, self.token_base + Self::TOK_COMPLETION);
    }

    /// The per-stream rate ceiling for stripe source `source` under current
    /// endpoint conditions: the TCP window/loss bound and the fair shares
    /// of the source disk/CPU and destination disk/CPU.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a session stripes over one source per replica, far fewer than u32::MAX"
    )]
    fn stream_cap(&self, sim: &NetSim, source: usize) -> Bandwidth {
        let mode = self.req.effective_mode();
        let streams = self.req.streams();
        let stripes = self.sources.len() as u32;
        let total_streams = u64::from(streams) * u64::from(stripes);
        let mut cpu_penalty = if mode.is_extended() {
            self.costs.mode_e_cpu_penalty
        } else {
            0.0
        };
        cpu_penalty += match self.req.protection {
            crate::transfer::DataChannelProtection::Clear => 0.0,
            crate::transfer::DataChannelProtection::Safe => self.costs.integrity_cpu_penalty,
            crate::transfer::DataChannelProtection::Private => self.costs.privacy_cpu_penalty,
        };
        let mode_cpu_scale = 1.0 / (1.0 + cpu_penalty);
        let dst_aggregate = self
            .dst
            .disk_write
            .as_bps()
            .min(self.dst.cpu_rate(&self.costs).as_bps() * mode_cpu_scale);
        let dst_share = dst_aggregate / total_streams as f64;
        let source = &self.sources[source];
        let rtt = sim.rtt(source.node, self.dst.node);
        let tcp_cap = self.tcp.steady_rate(rtt).as_bps();
        let src_aggregate = source
            .disk_read
            .as_bps()
            .min(source.cpu_rate(&self.costs).as_bps() * mode_cpu_scale);
        let src_share = src_aggregate / f64::from(streams);
        Bandwidth::from_bps(tcp_cap.min(src_share).min(dst_share))
    }

    /// Updates the session's view of endpoint resources (disk availability,
    /// CPU headroom) and re-caps active data flows accordingly. Drivers
    /// call this when monitoring observes that host load changed, so long
    /// transfers genuinely track the dynamic environment.
    ///
    /// # Panics
    ///
    /// Panics if `sources` does not match the session's stripe count.
    pub fn refresh_endpoints(
        &mut self,
        sim: &mut NetSim,
        sources: &[TransferEndpoint],
        dst: TransferEndpoint,
    ) {
        assert_eq!(
            sources.len(),
            self.sources.len(),
            "stripe count cannot change mid-transfer"
        );
        self.sources.copy_from_slice(sources);
        self.dst = dst;
        if self.state != State::Data {
            return;
        }
        for &(flow, stream) in &self.active_flows {
            sim.set_flow_cap(flow, self.stream_cap(sim, stream.source));
        }
    }

    /// Aborts the session (client failure, operator cancel), tearing down
    /// its data flows. Returns the payload bytes already safely delivered
    /// — the offset a GridFTP *restart marker* would report, from which a
    /// new partial-transfer request can resume
    /// (see [`TransferRequest::with_range`]).
    ///
    /// Fully delivered streams count entirely; interrupted streams count
    /// their delivered fraction rounded down (conservative, as restart
    /// markers only cover acknowledged blocks).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "fraction is clamped to [0, 1], so the product lies within 0..=payload"
    )]
    pub fn abort(&mut self, sim: &mut NetSim) -> u64 {
        let mut delivered = self.completed_payload;
        for (flow, stream) in self.active_flows.drain(..) {
            if let Some(progress) = sim.abort_flow(flow) {
                if stream.wire > 0 {
                    let fraction = (progress.bytes_done / stream.wire as f64).clamp(0.0, 1.0);
                    delivered += (stream.payload as f64 * fraction).floor() as u64;
                }
            }
        }
        self.state = State::Done;
        delivered.min(self.req.payload_bytes())
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "a session stripes over one source per replica, far fewer than u32::MAX"
    )]
    fn start_data_flows(&mut self, sim: &mut NetSim) {
        let mode = self.req.effective_mode();
        let streams = self.req.streams();
        let total_payload = self.req.payload_bytes();
        let stripes = self.sources.len() as u32;
        let stripe_payloads = TransferMode::split_across_streams(total_payload, stripes);
        for (src_idx, stripe_payload) in stripe_payloads.into_iter().enumerate() {
            let source = self.sources[src_idx];
            let cap = self.stream_cap(sim, src_idx);
            for stream_payload in TransferMode::split_across_streams(stripe_payload, streams) {
                let wire = mode.wire_bytes(stream_payload);
                self.wire_bytes += wire;
                let id = sim.start_flow(
                    FlowSpec::new(source.node, self.dst.node, wire)
                        .with_cap(cap)
                        .with_token(self.token_base),
                );
                self.active_flows.push((
                    id,
                    StreamFlow {
                        source: src_idx,
                        payload: stream_payload,
                        wire,
                    },
                ));
            }
        }
    }
}

/// Runs a transfer to completion on a simulator with no other foreground
/// activity, returning the outcome.
///
/// # Errors
///
/// Any [`TransferError`] from request validation.
///
/// # Panics
///
/// Panics if the endpoints are unroutable or the simulator delivers events
/// the session does not own (other foreground activity).
pub fn run_transfer(
    sim: &mut NetSim,
    req: &TransferRequest,
    src: &TransferEndpoint,
    dst: &TransferEndpoint,
    tcp: &TcpParams,
) -> Result<TransferOutcome, TransferError> {
    run_striped_transfer(sim, req, std::slice::from_ref(src), dst, tcp)
}

/// Runs a striped transfer to completion (see [`run_transfer`]).
///
/// # Errors
///
/// Any [`TransferError`] from request or stripe validation.
///
/// # Panics
///
/// Panics if the endpoints are unroutable or the simulator delivers events
/// the session does not own (other foreground activity).
pub fn run_striped_transfer(
    sim: &mut NetSim,
    req: &TransferRequest,
    sources: &[TransferEndpoint],
    dst: &TransferEndpoint,
    tcp: &TcpParams,
) -> Result<TransferOutcome, TransferError> {
    // A token base far above anything the Data Grid layer allocates.
    const LONE_SESSION_TOKENS: u64 = 1 << 40;
    let mut session =
        TransferSession::striped(*req, sources.to_vec(), *dst, *tcp, LONE_SESSION_TOKENS)?;
    session.start(sim);
    loop {
        let event = sim
            .next_event()
            .expect("transfer session always has pending work");
        if let SessionStatus::Complete(outcome) = session.handle(sim, &event) {
            return Ok(outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::Protocol;
    use datagrid_simnet::time::SimDuration;
    use datagrid_simnet::topology::{LinkSpec, Topology};

    const MB: u64 = 1 << 20;

    fn mbps(m: f64) -> Bandwidth {
        Bandwidth::from_mbps(m)
    }

    fn ms(m: u64) -> SimDuration {
        SimDuration::from_millis(m)
    }

    /// src --1Gbps LAN-- router --bottleneck WAN-- dst
    fn wan(bottleneck_mbps: f64, wan_ms: u64) -> (NetSim, NodeId, NodeId) {
        let mut t = Topology::new();
        let src = t.add_node("src");
        let router = t.add_node("router");
        let dst = t.add_node("dst");
        t.add_duplex_link(src, router, LinkSpec::new(Bandwidth::from_gbps(1.0), ms(1)));
        t.add_duplex_link(
            router,
            dst,
            LinkSpec::new(mbps(bottleneck_mbps), ms(wan_ms)),
        );
        let sim = NetSim::new(t, 5);
        (sim, src, dst)
    }

    fn lossy_tcp() -> TcpParams {
        TcpParams::new(256 * 1024, 0.003)
    }

    #[test]
    fn gridftp_transfer_completes_with_phases() {
        let (mut sim, src, dst) = wan(100.0, 5);
        let req = TransferRequest::new(64 * MB);
        let outcome = run_transfer(
            &mut sim,
            &req,
            &TransferEndpoint::unconstrained(src),
            &TransferEndpoint::unconstrained(dst),
            &TcpParams::default(),
        )
        .unwrap();
        assert_eq!(outcome.payload_bytes, 64 * MB);
        assert_eq!(outcome.wire_bytes, 64 * MB); // stream mode
        assert_eq!(outcome.streams, 1);
        assert!(outcome.phase("control").is_some());
        assert!(outcome.phase("data").is_some());
        assert!(outcome.phase("completion").is_some());
        // Data phase dominated by 64 MiB at 100 Mbps ≈ 5.37 s.
        let data = outcome.phase("data").unwrap().duration().as_secs_f64();
        assert!((data - 5.37).abs() < 0.5, "data phase {data}");
    }

    #[test]
    fn ftp_beats_gridftp_by_the_handshake_only() {
        let size = 256 * MB;
        let run = |protocol| {
            let (mut sim, src, dst) = wan(100.0, 5);
            let req = TransferRequest::new(size).with_protocol(protocol);
            run_transfer(
                &mut sim,
                &req,
                &TransferEndpoint::unconstrained(src),
                &TransferEndpoint::unconstrained(dst),
                &TcpParams::default(),
            )
            .unwrap()
        };
        let ftp = run(Protocol::Ftp);
        let gftp = run(Protocol::GridFtp);
        let gap = gftp.duration().as_secs_f64() - ftp.duration().as_secs_f64();
        assert!(gap > 0.0, "GridFTP pays authentication");
        assert!(gap < 1.0, "but only a constant: gap {gap}");
        // Same steady data rate.
        let r_ftp = ftp.data_throughput().as_mbps();
        let r_gftp = gftp.data_throughput().as_mbps();
        assert!((r_ftp - r_gftp).abs() / r_ftp < 0.02);
    }

    #[test]
    fn parallel_streams_beat_single_on_lossy_wan() {
        // The paper's Fig. 4 mechanism: on a lossy 30 Mbps WAN path a
        // single stream is Mathis-limited; parallel streams aggregate.
        let size = 256 * MB;
        let run = |parallelism| {
            let (mut sim, src, dst) = wan(30.0, 8);
            let req = TransferRequest::new(size).with_parallelism(parallelism);
            run_transfer(
                &mut sim,
                &req,
                &TransferEndpoint::unconstrained(src),
                &TransferEndpoint::unconstrained(dst),
                &lossy_tcp(),
            )
            .unwrap()
        };
        let t1 = run(1).duration().as_secs_f64();
        let t4 = run(4).duration().as_secs_f64();
        let t16 = run(16).duration().as_secs_f64();
        assert!(t4 < t1 * 0.55, "4 streams {t4} vs 1 stream {t1}");
        // Diminishing returns: once the link saturates, 16 streams are no
        // better than 4 (and pay marginally more framing).
        assert!(t16 <= t4 * 1.01, "16 streams {t16} vs 4 {t4}");
        assert!(t16 > t4 * 0.5, "saturation: {t16} vs {t4}");
    }

    #[test]
    fn mode_e_single_stream_differs_from_stream_mode() {
        let size = 64 * MB;
        let run = |req: TransferRequest| {
            let (mut sim, src, dst) = wan(100.0, 5);
            run_transfer(
                &mut sim,
                &req,
                &TransferEndpoint::unconstrained(src),
                &TransferEndpoint::unconstrained(dst),
                &TcpParams::default(),
            )
            .unwrap()
        };
        let stream = run(TransferRequest::new(size));
        let mode_e = run(TransferRequest::new(size).with_parallelism(1));
        // MODE E with one stream still frames blocks: more wire bytes and
        // an extra negotiation round trip.
        assert!(mode_e.wire_bytes > stream.wire_bytes);
        assert!(mode_e.duration() > stream.duration());
    }

    #[test]
    fn busy_source_disk_limits_throughput() {
        let (mut sim, src, dst) = wan(1000.0, 1);
        let req = TransferRequest::new(64 * MB);
        let slow_disk = TransferEndpoint::new(
            src,
            mbps(80.0), // disk can only read 10 MB/s
            mbps(80.0),
            1.0,
            4.0,
        );
        let outcome = run_transfer(
            &mut sim,
            &req,
            &slow_disk,
            &TransferEndpoint::unconstrained(dst),
            &TcpParams::default(),
        )
        .unwrap();
        let rate = outcome.data_throughput().as_mbps();
        assert!(rate < 81.0, "disk-limited rate {rate}");
        assert!(rate > 60.0, "rate {rate} unexpectedly slow");
    }

    #[test]
    fn busy_cpu_limits_throughput() {
        let (mut sim, src, dst) = wan(1000.0, 1);
        let req = TransferRequest::new(64 * MB);
        // compute index 1, headroom 0.1 -> 75 MB/s * 0.1 = 7.5 MB/s = 60 Mbps.
        let busy = TransferEndpoint::new(src, mbps(8000.0), mbps(8000.0), 0.1, 1.0);
        let outcome = run_transfer(
            &mut sim,
            &req,
            &busy,
            &TransferEndpoint::unconstrained(dst),
            &TcpParams::default(),
        )
        .unwrap();
        let rate = outcome.data_throughput().as_mbps();
        assert!((rate - 60.0).abs() < 12.0, "cpu-limited rate {rate}");
    }

    #[test]
    fn partial_transfer_moves_only_the_range() {
        let (mut sim, src, dst) = wan(100.0, 5);
        let req = TransferRequest::new(64 * MB).with_range(MB, 4 * MB);
        let outcome = run_transfer(
            &mut sim,
            &req,
            &TransferEndpoint::unconstrained(src),
            &TransferEndpoint::unconstrained(dst),
            &TcpParams::default(),
        )
        .unwrap();
        assert_eq!(outcome.payload_bytes, 4 * MB);
        assert!(outcome.duration().as_secs_f64() < 2.0);
    }

    #[test]
    fn striped_transfer_uses_all_sources() {
        // Two stripe servers behind separate 50 Mbps uplinks into a fast
        // WAN: striping doubles aggregate bandwidth.
        let mut t = Topology::new();
        let s1 = t.add_node("stripe1");
        let s2 = t.add_node("stripe2");
        let router = t.add_node("router");
        let dst = t.add_node("dst");
        t.add_duplex_link(s1, router, LinkSpec::new(mbps(50.0), ms(1)));
        t.add_duplex_link(s2, router, LinkSpec::new(mbps(50.0), ms(1)));
        t.add_duplex_link(router, dst, LinkSpec::new(Bandwidth::from_gbps(1.0), ms(4)));
        let mut sim = NetSim::new(t, 9);
        let req = TransferRequest::new(128 * MB).with_parallelism(2);
        let outcome = run_striped_transfer(
            &mut sim,
            &req,
            &[
                TransferEndpoint::unconstrained(s1),
                TransferEndpoint::unconstrained(s2),
            ],
            &TransferEndpoint::unconstrained(dst),
            &TcpParams::default(),
        )
        .unwrap();
        assert_eq!(outcome.stripes, 2);
        let rate = outcome.data_throughput().as_mbps();
        assert!(rate > 70.0, "striped rate {rate} should approach 100 Mbps");

        // Single-source baseline from s1 only.
        let mut t = Topology::new();
        let s1 = t.add_node("stripe1");
        let router = t.add_node("router");
        let dst = t.add_node("dst");
        t.add_duplex_link(s1, router, LinkSpec::new(mbps(50.0), ms(1)));
        t.add_duplex_link(router, dst, LinkSpec::new(Bandwidth::from_gbps(1.0), ms(4)));
        let mut sim = NetSim::new(t, 9);
        let single = run_transfer(
            &mut sim,
            &req,
            &TransferEndpoint::unconstrained(s1),
            &TransferEndpoint::unconstrained(dst),
            &TcpParams::default(),
        )
        .unwrap();
        assert!(
            outcome.duration() < single.duration(),
            "striping should beat one stripe: {} vs {}",
            outcome.duration(),
            single.duration()
        );
    }

    #[test]
    fn third_party_control_pays_client_latency() {
        // Client far from both endpoints; data path is fast and short.
        let mut t = Topology::new();
        let client = t.add_node("client");
        let src = t.add_node("src");
        let dst = t.add_node("dst");
        t.add_duplex_link(src, dst, LinkSpec::new(Bandwidth::from_gbps(1.0), ms(1)));
        t.add_duplex_link(client, src, LinkSpec::new(mbps(10.0), ms(50)));
        let mut sim = NetSim::new(t, 2);
        let req = TransferRequest::new(MB);
        let mut session = TransferSession::new(
            req,
            TransferEndpoint::unconstrained(src),
            TransferEndpoint::unconstrained(dst),
            TcpParams::default(),
            1 << 30,
        )
        .unwrap()
        .with_control_from(client);
        session.start(&mut sim);
        let outcome = loop {
            let ev = sim.next_event().unwrap();
            if let SessionStatus::Complete(o) = session.handle(&mut sim, &ev) {
                break o;
            }
        };
        // Control over the 100 ms RTT path dominates the tiny data move.
        assert!(outcome.control_overhead() > SimDuration::from_millis(500));
        assert!(outcome.phase("data").unwrap().duration() < SimDuration::from_millis(200));
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let (mut sim, src, dst) = wan(100.0, 5);
        let req = TransferRequest::new(MB)
            .with_protocol(Protocol::Ftp)
            .with_parallelism(4);
        let err = run_transfer(
            &mut sim,
            &req,
            &TransferEndpoint::unconstrained(src),
            &TransferEndpoint::unconstrained(dst),
            &TcpParams::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TransferError::InvalidRequest { .. }));
        let err = TransferSession::striped(
            TransferRequest::new(MB),
            Vec::new(),
            TransferEndpoint::unconstrained(dst),
            TcpParams::default(),
            0,
        )
        .unwrap_err();
        assert!(matches!(err, TransferError::InvalidRequest { .. }));
    }

    #[test]
    fn bigger_files_take_proportionally_longer() {
        let run = |mbytes: u64| {
            let (mut sim, src, dst) = wan(100.0, 5);
            let req = TransferRequest::new(mbytes * MB);
            run_transfer(
                &mut sim,
                &req,
                &TransferEndpoint::unconstrained(src),
                &TransferEndpoint::unconstrained(dst),
                &TcpParams::default(),
            )
            .unwrap()
            .duration()
            .as_secs_f64()
        };
        let t256 = run(256);
        let t512 = run(512);
        let t1024 = run(1024);
        assert!(
            (t512 / t256 - 2.0).abs() < 0.2,
            "512/256 ratio {}",
            t512 / t256
        );
        assert!(
            (t1024 / t512 - 2.0).abs() < 0.1,
            "1024/512 ratio {}",
            t1024 / t512
        );
    }

    #[test]
    fn sessions_share_a_simulator() {
        // Two concurrent transfers over the same bottleneck, driven by an
        // event router: both complete, later than either would alone.
        let (mut sim, src, dst) = wan(100.0, 5);
        let tcp = TcpParams::default();
        let mk = |base: u64| {
            TransferSession::new(
                TransferRequest::new(32 * MB),
                TransferEndpoint::unconstrained(src),
                TransferEndpoint::unconstrained(dst),
                tcp,
                base,
            )
            .unwrap()
        };
        let mut a = mk(1000);
        let mut b = mk(2000);
        a.start(&mut sim);
        b.start(&mut sim);
        let mut done = Vec::new();
        while done.len() < 2 {
            let ev = sim.next_event().expect("work pending");
            // Data flows carry their session's token base; only it owns them.
            if let EventKind::FlowCompleted(flow) = &ev.kind {
                assert_eq!(a.owns(&ev), flow.token == 1000);
                assert_eq!(b.owns(&ev), flow.token == 2000);
            }
            if a.owns(&ev) {
                if let SessionStatus::Complete(o) = a.handle(&mut sim, &ev) {
                    done.push(o);
                }
            } else if b.owns(&ev) {
                if let SessionStatus::Complete(o) = b.handle(&mut sim, &ev) {
                    done.push(o);
                }
            } else {
                panic!("orphan event {ev:?}");
            }
        }
        // Sharing 100 Mbps: each ~32MiB at ~50 Mbps ≈ 5.4 s (plus overheads)
        for o in &done {
            let secs = o.duration().as_secs_f64();
            assert!(secs > 4.0, "transfers contended: {secs}");
        }
    }
}

#[cfg(test)]
mod restart_tests {
    use super::*;
    use datagrid_simnet::time::SimDuration;
    use datagrid_simnet::topology::{LinkSpec, Topology};

    const MB: u64 = 1 << 20;

    fn net() -> (NetSim, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_duplex_link(
            a,
            b,
            LinkSpec::new(Bandwidth::from_mbps(80.0), SimDuration::from_millis(5)),
        );
        (NetSim::new(t, 1), a, b)
    }

    /// Drives a session until `cutoff`, then aborts; returns the restart
    /// offset.
    fn run_until_and_abort(cutoff: SimTime, parallelism: u32) -> (u64, u64) {
        let (mut sim, a, b) = net();
        let total = 64 * MB;
        let mut req = TransferRequest::new(total);
        if parallelism > 0 {
            req = req.with_parallelism(parallelism);
        }
        let mut session = TransferSession::new(
            req,
            TransferEndpoint::unconstrained(a),
            TransferEndpoint::unconstrained(b),
            TcpParams::default(),
            1 << 32,
        )
        .unwrap();
        session.start(&mut sim);
        sim.schedule_timer(cutoff, 9999);
        loop {
            let ev = sim.next_event().expect("work pending");
            if matches!(ev.kind, EventKind::TimerFired(9999)) {
                return (session.abort(&mut sim), total);
            }
            if session.owns(&ev) {
                if let SessionStatus::Complete(_) = session.handle(&mut sim, &ev) {
                    panic!("transfer completed before the cutoff");
                }
            }
        }
    }

    #[test]
    fn abort_mid_data_reports_partial_progress() {
        // 64 MiB at 80 Mbps takes ~6.7 s of data time; cut at 3 s.
        let (delivered, total) = run_until_and_abort(SimTime::from_secs_f64(3.0), 4);
        assert!(delivered > 0, "some bytes should be delivered by 3 s");
        assert!(delivered < total, "transfer must not have finished");
        // Roughly proportional to time: between 20% and 60%.
        let fraction = delivered as f64 / total as f64;
        assert!((0.2..0.6).contains(&fraction), "fraction {fraction}");
    }

    #[test]
    fn abort_during_control_reports_zero() {
        let (delivered, _) = run_until_and_abort(SimTime::from_nanos(1), 1);
        assert_eq!(delivered, 0, "no data flows yet");
    }

    #[test]
    fn resume_transfers_only_the_tail() {
        let (delivered, total) = run_until_and_abort(SimTime::from_secs_f64(3.0), 4);
        // Resume with a partial request from the restart offset.
        let (mut sim, a, b) = net();
        let resume = TransferRequest::new(total)
            .with_range(delivered, total - delivered)
            .with_parallelism(4);
        let outcome = run_transfer(
            &mut sim,
            &resume,
            &TransferEndpoint::unconstrained(a),
            &TransferEndpoint::unconstrained(b),
            &TcpParams::default(),
        )
        .unwrap();
        assert_eq!(outcome.payload_bytes, total - delivered);
        // The tail is cheaper than a full re-transfer.
        let full = run_transfer(
            &mut sim,
            &TransferRequest::new(total).with_parallelism(4),
            &TransferEndpoint::unconstrained(a),
            &TransferEndpoint::unconstrained(b),
            &TcpParams::default(),
        )
        .unwrap();
        assert!(outcome.duration() < full.duration());
    }

    #[test]
    fn abort_after_completion_is_empty() {
        let (mut sim, a, b) = net();
        let mut session = TransferSession::new(
            TransferRequest::new(MB),
            TransferEndpoint::unconstrained(a),
            TransferEndpoint::unconstrained(b),
            TcpParams::default(),
            1 << 32,
        )
        .unwrap();
        session.start(&mut sim);
        loop {
            let ev = sim.next_event().unwrap();
            if let SessionStatus::Complete(outcome) = session.handle(&mut sim, &ev) {
                assert_eq!(outcome.payload_bytes, MB);
                break;
            }
        }
        // All payload was delivered, nothing active remains.
        assert_eq!(session.abort(&mut sim), MB);
    }
}

/// The session-level recovery contract the Data Grid fetch driver builds
/// on: the stall watchdog tears a dead transfer down, [`TransferFailure`]
/// carries the restart marker, and a new session resumes from it after a
/// [`RetryPolicy`] pause. The driver itself lives in the core crate; these
/// tests compose the same primitives in a minimal retry loop.
#[cfg(test)]
mod recovery_tests {
    use super::*;
    use crate::retry::RetryPolicy;
    use datagrid_simnet::fault::FaultPlan;
    use datagrid_simnet::rng::SimRng;
    use datagrid_simnet::topology::{LinkId, LinkSpec, Topology};

    const MB: u64 = 1 << 20;

    /// a --80Mbps-- b, plus the a->b directed link id.
    fn net() -> (NetSim, NodeId, NodeId, LinkId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let (fwd, _) = t.add_duplex_link(
            a,
            b,
            LinkSpec::new(Bandwidth::from_mbps(80.0), SimDuration::from_millis(5)),
        );
        (NetSim::new(t, 1), a, b, fwd)
    }

    fn policy() -> RetryPolicy {
        RetryPolicy::default()
            .with_base_backoff(SimDuration::from_secs(2))
            .with_jitter(0.0)
    }

    /// What a recovered transfer cost.
    #[derive(Debug, PartialEq)]
    struct Episode {
        /// Outcome of the final, successful attempt.
        outcome: TransferOutcome,
        /// Sessions started, including the first.
        attempts: u32,
        /// The restart offset each retry resumed from.
        resumed_from: Vec<u64>,
        /// Payload bytes delivered across every attempt.
        payload_moved: u64,
        /// Total time spent in backoff pauses.
        backoff_total: SimDuration,
    }

    /// Runs `req` from a to b, retrying stalled sessions from their restart
    /// marker until one completes (`None` once `policy` is exhausted). Each
    /// attempt gets its own token range so stale watchdogs never collide.
    fn recover(
        sim: &mut NetSim,
        req: &TransferRequest,
        a: NodeId,
        b: NodeId,
        policy: &RetryPolicy,
        seed: u64,
    ) -> Option<Episode> {
        const SESSION_TOKENS: u64 = 1 << 41;
        const WAIT_TOKEN: u64 = 1 << 42;
        let mut rng = SimRng::seed_from_u64(seed);
        let total = req.payload_bytes();
        let (mut committed, mut attempts, mut payload_moved) = (0u64, 0u32, 0u64);
        let mut resumed_from = Vec::new();
        let mut backoff_total = SimDuration::ZERO;
        loop {
            let attempt_req = if committed == 0 {
                *req
            } else {
                req.with_range(committed, total - committed)
            };
            let token_base =
                SESSION_TOKENS + u64::from(attempts) * TransferSession::TOKENS_PER_SESSION;
            let mut session = TransferSession::new(
                attempt_req,
                TransferEndpoint::unconstrained(a),
                TransferEndpoint::unconstrained(b),
                TcpParams::default(),
                token_base,
            )
            .unwrap()
            .with_stall_timeout(SimDuration::from_secs(1));
            attempts += 1;
            session.start(sim);
            let failure = loop {
                let event = sim.next_event().expect("session has pending work");
                if !session.owns(&event) {
                    continue; // stale watchdogs, fault notices
                }
                match session.handle(sim, &event) {
                    SessionStatus::Complete(outcome) => {
                        payload_moved += outcome.payload_bytes;
                        return Some(Episode {
                            outcome,
                            attempts,
                            resumed_from,
                            payload_moved,
                            backoff_total,
                        });
                    }
                    SessionStatus::Failed(failure) => break failure,
                    SessionStatus::InProgress => {}
                }
            };
            committed += failure.restart_offset();
            payload_moved += failure.delivered_payload;
            if policy.exhausted(attempts) {
                return None;
            }
            let pause = policy.backoff(attempts - 1, &mut rng);
            backoff_total += pause;
            sim.schedule_timer_after(pause, WAIT_TOKEN + u64::from(attempts));
            while sim.next_event().expect("backoff timer is pending").kind
                != EventKind::TimerFired(WAIT_TOKEN + u64::from(attempts))
            {}
            resumed_from.push(committed);
        }
    }

    /// A 3 s outage of a->b starting at 2 s.
    fn outage(fwd: LinkId) -> FaultPlan {
        FaultPlan::new().link_down(SimTime::from_secs_f64(2.0), SimDuration::from_secs(3), fwd)
    }

    #[test]
    fn outage_is_survived_by_resuming_from_restart_marker() {
        let (mut sim, a, b, fwd) = net();
        // 64 MiB at 80 Mbps needs ~6.7 s of data time; a 3 s outage at 2 s
        // forces one stall + one resumed attempt.
        sim.install_fault_plan(outage(fwd));
        let req = TransferRequest::new(64 * MB).with_parallelism(4);
        let rec = recover(&mut sim, &req, a, b, &policy(), 7).expect("recovers");
        assert!(rec.attempts >= 2, "must have retried: {rec:?}");
        assert_eq!(rec.payload_moved, 64 * MB, "markers avoid re-sending");
        assert!(!rec.resumed_from.is_empty());
        assert!(
            rec.resumed_from.iter().all(|&o| o > 0),
            "MODE E resumes mid-file: {:?}",
            rec.resumed_from
        );
        assert!(rec.backoff_total > SimDuration::ZERO);
        // The final attempt only moved the tail.
        assert!(rec.outcome.payload_bytes < 64 * MB);
    }

    #[test]
    fn stream_mode_restarts_from_zero_and_moves_more_bytes() {
        let run = |req: TransferRequest| {
            let (mut sim, a, b, fwd) = net();
            sim.install_fault_plan(outage(fwd));
            recover(&mut sim, &req, a, b, &policy(), 7).expect("recovers")
        };
        let mode_e = run(TransferRequest::new(64 * MB).with_parallelism(4));
        let stream = run(TransferRequest::new(64 * MB));
        assert!(stream.attempts >= 2);
        assert!(
            stream.resumed_from.iter().all(|&o| o == 0),
            "stream mode has no restart markers: {:?}",
            stream.resumed_from
        );
        // A resumed MODE E episode moves strictly fewer total bytes than
        // restart-from-zero.
        assert!(
            mode_e.payload_moved < stream.payload_moved,
            "resume {} vs restart {}",
            mode_e.payload_moved,
            stream.payload_moved
        );
        assert_eq!(stream.outcome.payload_bytes, 64 * MB, "full re-transfer");
    }

    #[test]
    fn recovery_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let (mut sim, a, b, fwd) = net();
            sim.install_fault_plan(outage(fwd));
            let req = TransferRequest::new(64 * MB).with_parallelism(4);
            recover(&mut sim, &req, a, b, &RetryPolicy::default(), seed).expect("recovers")
        };
        assert_eq!(run(11), run(11));
        let a = run(11);
        let b = run(12);
        // Different jitter draws shift the retry instant.
        assert!(a == b || a.backoff_total != b.backoff_total || a.outcome != b.outcome);
    }

    #[test]
    fn clean_path_needs_no_retries() {
        let (mut sim, a, b, _) = net();
        let req = TransferRequest::new(16 * MB).with_parallelism(2);
        let rec = recover(&mut sim, &req, a, b, &policy(), 1).expect("clean run");
        assert_eq!(rec.attempts, 1);
        assert!(rec.resumed_from.is_empty());
        assert_eq!(rec.backoff_total, SimDuration::ZERO);
        assert_eq!(rec.payload_moved, 16 * MB);
    }
}

#[cfg(test)]
mod protection_exec_tests {
    use super::*;
    use crate::transfer::DataChannelProtection;
    use datagrid_simnet::time::SimDuration;
    use datagrid_simnet::topology::{LinkSpec, Topology};

    const MB: u64 = 1 << 20;

    fn fast_net() -> (NetSim, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_duplex_link(
            a,
            b,
            LinkSpec::new(Bandwidth::from_gbps(1.0), SimDuration::from_millis(1)),
        );
        (NetSim::new(t, 1), a, b)
    }

    fn run(protection: DataChannelProtection, index: f64) -> f64 {
        let (mut sim, a, b) = fast_net();
        let endpoint = |node| {
            TransferEndpoint::new(
                node,
                Bandwidth::from_gbps(10.0),
                Bandwidth::from_gbps(10.0),
                1.0,
                index,
            )
        };
        let outcome = run_transfer(
            &mut sim,
            &TransferRequest::new(64 * MB).with_protection(protection),
            &endpoint(a),
            &endpoint(b),
            &TcpParams::default(),
        )
        .unwrap();
        outcome.data_throughput().as_mbps()
    }

    #[test]
    fn privacy_slows_cpu_bound_transfers() {
        // Compute index 1: clear rate is CPU-bound at 600 Mbps; integrity
        // halves it; privacy (10x work, software 3DES) drops it to
        // ~60 Mbps.
        let clear = run(DataChannelProtection::Clear, 1.0);
        let safe = run(DataChannelProtection::Safe, 1.0);
        let private = run(DataChannelProtection::Private, 1.0);
        assert!(
            clear > safe && safe > private,
            "{clear} > {safe} > {private}"
        );
        assert!(
            (clear / safe - 2.0).abs() < 0.3,
            "safe ratio {}",
            clear / safe
        );
        assert!(
            (clear / private - 10.0).abs() < 1.5,
            "ratio {}",
            clear / private
        );
    }

    #[test]
    fn protection_is_free_when_network_bound() {
        // Very fast hosts are network-bound at 1 Gbps either way
        // (index 64: even 3DES runs at 4.8 Gbps).
        let clear = run(DataChannelProtection::Clear, 64.0);
        let private = run(DataChannelProtection::Private, 64.0);
        assert!(
            (clear - private).abs() / clear < 0.02,
            "{clear} vs {private}"
        );
    }

    #[test]
    fn prot_negotiation_adds_control_round_trips() {
        let (mut sim, a, b) = fast_net();
        let clear = run_transfer(
            &mut sim,
            &TransferRequest::new(MB),
            &TransferEndpoint::unconstrained(a),
            &TransferEndpoint::unconstrained(b),
            &TcpParams::default(),
        )
        .unwrap();
        let private = run_transfer(
            &mut sim,
            &TransferRequest::new(MB).with_protection(DataChannelProtection::Private),
            &TransferEndpoint::unconstrained(a),
            &TransferEndpoint::unconstrained(b),
            &TcpParams::default(),
        )
        .unwrap();
        assert!(private.control_overhead() > clear.control_overhead());
    }
}

#[cfg(test)]
mod refresh_tests {
    use super::*;
    use datagrid_simnet::time::SimDuration;
    use datagrid_simnet::topology::{LinkSpec, Topology};

    const MB: u64 = 1 << 20;

    fn endpoint(node: NodeId, disk_mbps: f64) -> TransferEndpoint {
        TransferEndpoint::new(
            node,
            Bandwidth::from_mbps(disk_mbps),
            Bandwidth::from_mbps(disk_mbps),
            1.0,
            16.0,
        )
    }

    /// Runs a 64 MiB transfer; at 2 s the source disk availability is
    /// refreshed to `mid_disk_mbps`. Returns total duration in seconds.
    fn run_with_midway_refresh(mid_disk_mbps: Option<f64>) -> f64 {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.add_duplex_link(
            a,
            b,
            LinkSpec::new(Bandwidth::from_gbps(1.0), SimDuration::from_millis(2)),
        );
        let mut sim = NetSim::new(topo, 1);
        let mut session = TransferSession::new(
            TransferRequest::new(64 * MB),
            endpoint(a, 100.0),
            endpoint(b, 10_000.0),
            TcpParams::default(),
            1 << 33,
        )
        .unwrap();
        session.start(&mut sim);
        sim.schedule_timer(SimTime::from_secs_f64(2.0), 777);
        loop {
            let ev = sim.next_event().expect("work pending");
            if matches!(ev.kind, EventKind::TimerFired(777)) {
                if let Some(disk) = mid_disk_mbps {
                    session.refresh_endpoints(
                        &mut sim,
                        &[endpoint(a, disk)],
                        endpoint(b, 10_000.0),
                    );
                }
                continue;
            }
            if let SessionStatus::Complete(outcome) = session.handle(&mut sim, &ev) {
                return outcome.duration().as_secs_f64();
            }
        }
    }

    #[test]
    fn refresh_slows_the_transfer_when_the_disk_gets_busy() {
        let steady = run_with_midway_refresh(None);
        let degraded = run_with_midway_refresh(Some(10.0));
        // 64 MiB at 100 Mbps ≈ 5.4 s steady. Dropping the disk to 10 Mbps
        // after 2 s leaves ~39 MiB to move at 10 Mbps ≈ 33 s more.
        assert!(
            degraded > steady * 3.0,
            "steady {steady} vs degraded {degraded}"
        );
    }

    #[test]
    fn refresh_speeds_the_transfer_when_load_subsides() {
        let throttled = {
            // Start with a slow disk and never refresh.
            let mut topo = Topology::new();
            let a = topo.add_node("a");
            let b = topo.add_node("b");
            topo.add_duplex_link(
                a,
                b,
                LinkSpec::new(Bandwidth::from_gbps(1.0), SimDuration::from_millis(2)),
            );
            let mut sim = NetSim::new(topo, 1);
            let mut session = TransferSession::new(
                TransferRequest::new(64 * MB),
                endpoint(a, 10.0),
                endpoint(b, 10_000.0),
                TcpParams::default(),
                1 << 33,
            )
            .unwrap();
            session.start(&mut sim);
            sim.schedule_timer(SimTime::from_secs_f64(2.0), 777);
            let mut refreshed = false;
            loop {
                let ev = sim.next_event().expect("work pending");
                if matches!(ev.kind, EventKind::TimerFired(777)) {
                    session.refresh_endpoints(
                        &mut sim,
                        &[endpoint(a, 800.0)],
                        endpoint(b, 10_000.0),
                    );
                    refreshed = true;
                    continue;
                }
                if let SessionStatus::Complete(outcome) = session.handle(&mut sim, &ev) {
                    assert!(refreshed);
                    break outcome.duration().as_secs_f64();
                }
            }
        };
        // Without the refresh, 64 MiB at 10 Mbps takes ~54 s; with the disk
        // freeing up at 2 s the tail moves at 800 Mbps.
        assert!(throttled < 10.0, "recovered transfer took {throttled}");
    }
}
