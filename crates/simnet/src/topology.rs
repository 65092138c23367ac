//! Network topology: nodes, directed links and shortest-path routing.
//!
//! A [`Topology`] is a directed graph. Physical full-duplex cables are added
//! with [`Topology::add_duplex_link`], which creates one directed link per
//! direction so that opposing transfers never contend with each other (as on
//! real switched Ethernet). Routing is static shortest path by latency,
//! computed once per source node on demand and cached.

use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

use crate::time::SimDuration;

/// Identifier of a node in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

/// Identifier of a *directed* link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) u32);

impl NodeId {
    /// The raw index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a node id from a raw index (for test fixtures and benchmark
    /// harnesses; ids built this way are only meaningful against the
    /// topology they were taken from).
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in the id space.
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index too large"))
    }
}

impl LinkId {
    /// The raw index of this link.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a link id from a raw index (for test fixtures and benchmark
    /// harnesses; ids built this way are only meaningful against the
    /// topology they were taken from).
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in the id space.
    pub fn from_index(index: usize) -> Self {
        LinkId(u32::try_from(index).expect("link index too large"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A link or interface capacity, stored in bits per second.
///
/// ```
/// use datagrid_simnet::topology::Bandwidth;
///
/// let gig = Bandwidth::from_gbps(1.0);
/// assert_eq!(gig.as_mbps(), 1000.0);
/// assert!(gig > Bandwidth::from_mbps(30.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Creates a bandwidth from bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is negative or non-finite.
    pub fn from_bps(bps: f64) -> Self {
        assert!(bps.is_finite() && bps >= 0.0, "bad bandwidth {bps} bps");
        Bandwidth(bps)
    }

    /// Creates a bandwidth from megabits per second.
    pub fn from_mbps(mbps: f64) -> Self {
        Bandwidth::from_bps(mbps * 1e6)
    }

    /// Creates a bandwidth from gigabits per second.
    pub fn from_gbps(gbps: f64) -> Self {
        Bandwidth::from_bps(gbps * 1e9)
    }

    /// The value in bits per second.
    pub fn as_bps(self) -> f64 {
        self.0
    }

    /// The value in megabits per second.
    pub fn as_mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// The value in bytes per second.
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0 / 8.0
    }

    /// The time needed to serialise `bytes` at this rate, or
    /// [`SimDuration::MAX`] when the bandwidth is zero.
    pub fn time_for_bytes(self, bytes: u64) -> SimDuration {
        if self.0 <= 0.0 {
            return SimDuration::MAX;
        }
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.0)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2}Gbps", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.2}Mbps", self.0 / 1e6)
        } else {
            write!(f, "{:.0}bps", self.0)
        }
    }
}

/// Static properties of a directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Transmission capacity.
    pub capacity: Bandwidth,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Stationary packet loss probability on this link (feeds the TCP
    /// Mathis bound for paths crossing it; the fluid solver itself is
    /// loss-free).
    pub loss_rate: f64,
}

impl LinkSpec {
    /// Creates a loss-free link spec from capacity and one-way latency.
    pub fn new(capacity: Bandwidth, latency: SimDuration) -> Self {
        LinkSpec {
            capacity,
            latency,
            loss_rate: 0.0,
        }
    }

    /// Sets the link's packet loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `loss_rate` is outside `[0, 1)`.
    pub fn with_loss(mut self, loss_rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&loss_rate),
            "loss rate must be in [0, 1), got {loss_rate}"
        );
        self.loss_rate = loss_rate;
        self
    }
}

#[derive(Debug, Clone)]
pub(crate) struct LinkRecord {
    pub from: NodeId,
    pub to: NodeId,
    pub spec: LinkSpec,
}

#[derive(Debug, Clone)]
struct NodeRecord {
    name: String,
    /// Outgoing links.
    out: Vec<LinkId>,
    /// Every link incident to this node, in either direction. Maintained on
    /// [`Topology::add_link`] so fault handling and connection drops resolve
    /// a node's links in O(degree) instead of scanning the whole link table.
    incident: Vec<LinkId>,
}

/// A directed network graph with named nodes and capacity/latency links.
///
/// ```
/// use datagrid_simnet::prelude::*;
///
/// let mut topo = Topology::new();
/// let a = topo.add_node("alpha1");
/// let b = topo.add_node("hit0");
/// topo.add_duplex_link(a, b, LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_millis(4)));
/// assert_eq!(topo.node_by_name("hit0"), Some(b));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<NodeRecord>,
    links: Vec<LinkRecord>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a node with a (preferably unique) display name.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.nodes.push(NodeRecord {
            name: name.into(),
            out: Vec::new(),
            incident: Vec::new(),
        });
        id
    }

    /// Adds a single *directed* link.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist or `from == to`.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, spec: LinkSpec) -> LinkId {
        assert!(from.index() < self.nodes.len(), "unknown node {from}");
        assert!(to.index() < self.nodes.len(), "unknown node {to}");
        assert_ne!(from, to, "self-links are not allowed");
        let id = LinkId(u32::try_from(self.links.len()).expect("too many links"));
        self.links.push(LinkRecord { from, to, spec });
        self.nodes[from.index()].out.push(id);
        self.nodes[from.index()].incident.push(id);
        self.nodes[to.index()].incident.push(id);
        id
    }

    /// Adds a full-duplex cable: one directed link in each direction with the
    /// same spec. Returns `(forward, reverse)` link ids.
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (LinkId, LinkId) {
        (self.add_link(a, b, spec), self.add_link(b, a, spec))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All node ids.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "node ids are minted by Topology::add_node through u32::try_from, so every index below the node count fits"
    )]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The display name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.index()].name
    }

    /// Looks a node up by display name (linear scan; topologies are small).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "node ids are minted by Topology::add_node through u32::try_from, so every index below the node count fits"
    )]
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u32))
    }

    /// The spec of a directed link.
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist.
    pub fn link_spec(&self, link: LinkId) -> LinkSpec {
        self.links[link.index()].spec
    }

    /// The endpoints `(from, to)` of a directed link.
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist.
    pub fn link_endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
        let rec = &self.links[link.index()];
        (rec.from, rec.to)
    }

    pub(crate) fn link_records(&self) -> &[LinkRecord] {
        &self.links
    }

    /// Every directed link incident to `node` (either endpoint), in
    /// insertion order. O(1): the incidence lists are maintained as links
    /// are added.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn incident_links(&self, node: NodeId) -> &[LinkId] {
        &self.nodes[node.index()].incident
    }

    /// Renders the topology in Graphviz DOT format (for documentation and
    /// debugging: `dot -Tsvg`).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph topology {\n  rankdir=LR;\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = writeln!(out, "  n{i} [label=\"{}\"];", n.name);
        }
        // Render duplex pairs as one undirected-looking edge; lone directed
        // links keep their arrow.
        let mut seen = vec![false; self.links.len()];
        for (i, l) in self.links.iter().enumerate() {
            if seen[i] {
                continue;
            }
            let reverse = self.links.iter().enumerate().position(|(j, r)| {
                !seen[j] && j != i && r.from == l.to && r.to == l.from && r.spec == l.spec
            });
            let label = format!("{} / {}", l.spec.capacity, l.spec.latency);
            match reverse {
                Some(j) => {
                    seen[j] = true;
                    let _ = writeln!(
                        out,
                        "  n{} -> n{} [dir=both, label=\"{label}\"];",
                        l.from.index(),
                        l.to.index()
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  n{} -> n{} [label=\"{label}\"];",
                        l.from.index(),
                        l.to.index()
                    );
                }
            }
            seen[i] = true;
        }
        out.push_str("}\n");
        out
    }

    /// The largest link capacity anywhere in the topology — the grid-wide
    /// "highest theoretical bandwidth" that the paper's `BW_P` factor
    /// normalises against. `None` for a linkless topology.
    pub fn max_link_capacity(&self) -> Option<Bandwidth> {
        self.links
            .iter()
            .map(|l| l.spec.capacity)
            .max_by(|a, b| a.partial_cmp(b).expect("capacities are finite"))
    }

    /// The combined packet loss probability along a path
    /// (`1 - Π(1 - loss_l)`).
    ///
    /// # Panics
    ///
    /// Panics if the path references unknown links.
    pub fn path_loss(&self, path: &Path) -> f64 {
        let survive: f64 = path
            .links()
            .iter()
            .map(|l| 1.0 - self.links[l.index()].spec.loss_rate)
            .product();
        1.0 - survive
    }

    /// The highest theoretical bandwidth of a path: the capacity of its
    /// narrowest link (the denominator of the paper's `BW_P` factor).
    /// Returns `None` for an empty (node-local) path.
    ///
    /// # Panics
    ///
    /// Panics if the path references unknown links.
    pub fn path_capacity(&self, path: &Path) -> Option<Bandwidth> {
        path.links()
            .iter()
            .map(|l| self.links[l.index()].spec.capacity)
            .min_by(|a, b| a.partial_cmp(b).expect("capacities are finite"))
    }

    /// Computes shortest-path routes (by latency, ties by hop count) from
    /// `src` to every reachable node. Used by [`RoutingTable`].
    fn dijkstra(&self, src: NodeId) -> Vec<Option<(LinkId, SimDuration)>> {
        // prev[v] = (link taken into v, total latency to v)
        let mut dist: Vec<Option<(SimDuration, u32)>> = vec![None; self.nodes.len()];
        let mut prev: Vec<Option<LinkId>> = vec![None; self.nodes.len()];
        let mut heap = BinaryHeap::new();
        dist[src.index()] = Some((SimDuration::ZERO, 0));
        heap.push(std::cmp::Reverse((SimDuration::ZERO, 0u32, src)));
        while let Some(std::cmp::Reverse((d, hops, u))) = heap.pop() {
            match dist[u.index()] {
                Some((bd, bh)) if (bd, bh) < (d, hops) => continue,
                _ => {}
            }
            for &lid in &self.nodes[u.index()].out {
                let rec = &self.links[lid.index()];
                let nd = d + rec.spec.latency;
                let nh = hops + 1;
                let better = match dist[rec.to.index()] {
                    None => true,
                    Some((bd, bh)) => (nd, nh) < (bd, bh),
                };
                if better {
                    dist[rec.to.index()] = Some((nd, nh));
                    prev[rec.to.index()] = Some(lid);
                    heap.push(std::cmp::Reverse((nd, nh, rec.to)));
                }
            }
        }
        (0..self.nodes.len())
            .map(|i| prev[i].map(|l| (l, dist[i].expect("reached node has distance").0)))
            .collect()
    }
}

/// A path through the network: the directed links from source to
/// destination, plus the total one-way latency.
///
/// The link sequence is stored behind an [`Arc`] so the engine can share a
/// route with the routing table instead of copying it per flow: cloning a
/// `Path` (or calling [`Path::links_shared`]) is O(1) and allocation-free.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Path {
    links: Arc<[LinkId]>,
    latency: SimDuration,
}

impl Path {
    /// The directed links traversed, in order.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// A shared handle on the link sequence (O(1), no allocation).
    pub(crate) fn links_shared(&self) -> Arc<[LinkId]> {
        Arc::clone(&self.links)
    }

    /// Total one-way propagation latency of the path.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Round-trip time over this path (twice the one-way latency; paths are
    /// symmetric for duplex topologies).
    pub fn rtt(&self) -> SimDuration {
        self.latency * 2
    }

    /// Number of hops.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }
}

/// Precomputed all-pairs shortest-path routes over a [`Topology`].
#[derive(Debug, Clone)]
pub struct RoutingTable {
    node_count: usize,
    /// routes[src][dst]
    routes: Vec<Vec<Option<Path>>>,
}

impl RoutingTable {
    /// Computes routes for every ordered node pair.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "node ids are minted by Topology::add_node through u32::try_from, so every index below the node count fits"
    )]
    pub fn compute(topo: &Topology) -> Self {
        let n = topo.node_count();
        let mut routes = Vec::with_capacity(n);
        for s in 0..n {
            let src = NodeId(s as u32);
            let prev = topo.dijkstra(src);
            let mut row: Vec<Option<Path>> = Vec::with_capacity(n);
            for d in 0..n {
                if s == d {
                    row.push(Some(Path::default()));
                    continue;
                }
                // Walk predecessors back from dst.
                let mut links = Vec::new();
                let mut cur = d;
                let latency = match prev[d] {
                    None => {
                        row.push(None);
                        continue;
                    }
                    Some((_, lat)) => lat,
                };
                loop {
                    let (lid, _) = prev[cur].expect("path exists to intermediate node");
                    links.push(lid);
                    let from = topo.links[lid.index()].from;
                    if from == src {
                        break;
                    }
                    cur = from.index();
                }
                links.reverse();
                row.push(Some(Path {
                    links: links.into(),
                    latency,
                }));
            }
            routes.push(row);
        }
        RoutingTable {
            node_count: n,
            routes,
        }
    }

    /// The path from `src` to `dst`, or `None` if unreachable.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range for the routed topology.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<&Path> {
        assert!(src.index() < self.node_count && dst.index() < self.node_count);
        self.routes[src.index()][dst.index()].as_ref()
    }

    /// Round-trip time between two nodes, if connected.
    pub fn rtt(&self, src: NodeId, dst: NodeId) -> Option<SimDuration> {
        self.path(src, dst).map(Path::rtt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(m: f64) -> Bandwidth {
        Bandwidth::from_mbps(m)
    }

    fn ms(m: u64) -> SimDuration {
        SimDuration::from_millis(m)
    }

    #[test]
    fn bandwidth_conversions() {
        assert_eq!(Bandwidth::from_gbps(1.0).as_bps(), 1e9);
        assert_eq!(Bandwidth::from_mbps(30.0).as_bytes_per_sec(), 3.75e6);
        assert_eq!(
            mbps(8.0).time_for_bytes(1_000_000),
            SimDuration::from_secs(1)
        );
        assert_eq!(Bandwidth::ZERO.time_for_bytes(1), SimDuration::MAX);
    }

    #[test]
    fn bandwidth_display() {
        assert_eq!(Bandwidth::from_gbps(1.0).to_string(), "1.00Gbps");
        assert_eq!(mbps(30.0).to_string(), "30.00Mbps");
        assert_eq!(Bandwidth::from_bps(500.0).to_string(), "500bps");
    }

    #[test]
    fn node_lookup_by_name() {
        let mut t = Topology::new();
        let a = t.add_node("alpha1");
        let b = t.add_node("lz02");
        assert_eq!(t.node_by_name("alpha1"), Some(a));
        assert_eq!(t.node_by_name("lz02"), Some(b));
        assert_eq!(t.node_by_name("nope"), None);
        assert_eq!(t.node_name(b), "lz02");
    }

    #[test]
    fn duplex_creates_two_links() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let (f, r) = t.add_duplex_link(a, b, LinkSpec::new(mbps(10.0), ms(1)));
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.link_endpoints(f), (a, b));
        assert_eq!(t.link_endpoints(r), (b, a));
    }

    #[test]
    fn incident_links_cover_both_directions() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let (ab, ba) = t.add_duplex_link(a, b, LinkSpec::new(mbps(10.0), ms(1)));
        let (bc, cb) = t.add_duplex_link(b, c, LinkSpec::new(mbps(10.0), ms(1)));
        assert_eq!(t.incident_links(a), &[ab, ba]);
        assert_eq!(t.incident_links(b), &[ab, ba, bc, cb]);
        assert_eq!(t.incident_links(c), &[bc, cb]);
        assert_eq!(NodeId::from_index(1), b);
        assert_eq!(LinkId::from_index(ab.index()), ab);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        t.add_link(a, a, LinkSpec::new(mbps(1.0), ms(1)));
    }

    #[test]
    fn routing_line_topology() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let (ab, _) = t.add_duplex_link(a, b, LinkSpec::new(mbps(10.0), ms(2)));
        let (bc, _) = t.add_duplex_link(b, c, LinkSpec::new(mbps(10.0), ms(3)));
        let rt = RoutingTable::compute(&t);
        let p = rt.path(a, c).expect("connected");
        assert_eq!(p.links(), &[ab, bc]);
        assert_eq!(p.latency(), ms(5));
        assert_eq!(p.rtt(), ms(10));
        assert_eq!(p.hop_count(), 2);
    }

    #[test]
    fn routing_prefers_lower_latency() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        // Direct a->c is slow; a->b->c is faster in latency.
        t.add_duplex_link(a, c, LinkSpec::new(mbps(10.0), ms(20)));
        t.add_duplex_link(a, b, LinkSpec::new(mbps(10.0), ms(2)));
        t.add_duplex_link(b, c, LinkSpec::new(mbps(10.0), ms(2)));
        let rt = RoutingTable::compute(&t);
        assert_eq!(rt.path(a, c).unwrap().hop_count(), 2);
        assert_eq!(rt.rtt(a, c), Some(ms(8)));
    }

    #[test]
    fn routing_unreachable_and_self() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let rt = RoutingTable::compute(&t);
        assert!(rt.path(a, b).is_none());
        let self_path = rt.path(a, a).expect("self path");
        assert_eq!(self_path.hop_count(), 0);
        assert_eq!(self_path.latency(), SimDuration::ZERO);
    }

    #[test]
    fn routing_tie_breaks_by_hops() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        // Two equal-latency routes a->c: direct (4ms) and via b (2+2ms).
        let (direct, _) = t.add_duplex_link(a, c, LinkSpec::new(mbps(10.0), ms(4)));
        t.add_duplex_link(a, b, LinkSpec::new(mbps(10.0), ms(2)));
        t.add_duplex_link(b, c, LinkSpec::new(mbps(10.0), ms(2)));
        let rt = RoutingTable::compute(&t);
        assert_eq!(rt.path(a, c).unwrap().links(), &[direct]);
    }
}

#[cfg(test)]
mod loss_tests {
    use super::*;

    #[test]
    fn link_loss_validated_and_combined() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let spec_ab =
            LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_millis(1)).with_loss(0.01);
        let spec_bc =
            LinkSpec::new(Bandwidth::from_mbps(30.0), SimDuration::from_millis(1)).with_loss(0.02);
        t.add_duplex_link(a, b, spec_ab);
        t.add_duplex_link(b, c, spec_bc);
        let rt = RoutingTable::compute(&t);
        let p = rt.path(a, c).unwrap();
        let loss = t.path_loss(p);
        assert!((loss - (1.0 - 0.99 * 0.98)).abs() < 1e-12);
        assert_eq!(t.path_capacity(p), Some(Bandwidth::from_mbps(30.0)));
        // Self path: no links, no capacity bound, no loss.
        let self_path = rt.path(a, a).unwrap();
        assert_eq!(t.path_loss(self_path), 0.0);
        assert_eq!(t.path_capacity(self_path), None);
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn out_of_range_loss_rejected() {
        let _ = LinkSpec::new(Bandwidth::from_mbps(1.0), SimDuration::ZERO).with_loss(1.0);
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;

    #[test]
    fn dot_renders_nodes_and_duplex_edges() {
        let mut t = Topology::new();
        let a = t.add_node("alpha1");
        let b = t.add_node("switch");
        let c = t.add_node("probe");
        t.add_duplex_link(
            a,
            b,
            LinkSpec::new(Bandwidth::from_gbps(1.0), SimDuration::from_millis(1)),
        );
        t.add_link(
            b,
            c,
            LinkSpec::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(2)),
        );
        let dot = t.to_dot();
        assert!(dot.starts_with("digraph topology {"));
        assert!(dot.contains("label=\"alpha1\""));
        // Duplex pair folded into one dir=both edge.
        assert_eq!(dot.matches("dir=both").count(), 1);
        // The lone directed link keeps a plain arrow.
        assert!(dot.contains("n1 -> n2 [label="));
        assert!(dot.trim_end().ends_with('}'));
    }
}
