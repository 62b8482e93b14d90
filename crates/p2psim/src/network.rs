//! Network state over a topology: node liveness, message accounting and
//! the search walks the paper relies on.
//!
//! The paper's costs are counted in **messages** (§6.1), so the network
//! tracks a counter per [`MessageClass`]. Latency matters only for the
//! closest-summary-peer choice during construction (§4.1), so the network
//! exposes link latencies but message delivery scheduling stays in the
//! application's simulator loop.

use std::collections::BTreeMap;

use rand::Rng;

use crate::time::SimTime;
use crate::topology::Graph;

/// A node identifier (index into the topology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Classes of protocol messages, for cost accounting (§6.1's update vs
/// query traffic decomposition, and Figure 6/7's series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageClass {
    /// Domain construction: `sumpeer` broadcasts, `localsum`, `drop`, `find`.
    Construction,
    /// Maintenance `push` messages (freshness flags).
    Push,
    /// Reconciliation token hops.
    Reconciliation,
    /// Query messages sent to summary peers / relevant peers.
    Query,
    /// Query responses.
    QueryResponse,
    /// Inter-domain flooding requests.
    Flood,
    /// Departure notifications (`release`).
    Control,
}

/// Mutable network state: liveness + counters over an immutable topology.
#[derive(Debug, Clone)]
pub struct Network {
    graph: Graph,
    up: Vec<bool>,
    counters: BTreeMap<MessageClass, u64>,
    total_sent: u64,
}

impl Network {
    /// Wraps a topology with every node initially up.
    pub fn new(graph: Graph) -> Self {
        let n = graph.len();
        Self {
            graph,
            up: vec![true; n],
            counters: BTreeMap::new(),
            total_sent: 0,
        }
    }

    /// The underlying topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes (up or down).
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// True when the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// True when the node is currently connected.
    pub fn is_up(&self, n: NodeId) -> bool {
        self.up[n.index()]
    }

    /// Marks a node connected.
    pub fn bring_up(&mut self, n: NodeId) {
        self.up[n.index()] = true;
    }

    /// Marks a node disconnected.
    pub fn take_down(&mut self, n: NodeId) {
        self.up[n.index()] = false;
    }

    /// Number of nodes currently up.
    pub fn up_count(&self) -> usize {
        self.up.iter().filter(|&&b| b).count()
    }

    /// Live neighbors of a node.
    pub fn live_neighbors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.graph
            .neighbors(crate::network::NodeId(n.0))
            .iter()
            .map(|e| e.node)
            .filter(|m| self.is_up(*m))
    }

    /// Latency of the direct link, if adjacent.
    pub fn latency(&self, a: NodeId, b: NodeId) -> Option<SimTime> {
        self.graph.link_latency(a, b)
    }

    /// Counts one sent message of the given class.
    pub fn count_message(&mut self, class: MessageClass) {
        *self.counters.entry(class).or_insert(0) += 1;
        self.total_sent += 1;
    }

    /// Counts `n` messages at once.
    pub fn count_messages(&mut self, class: MessageClass, n: u64) {
        *self.counters.entry(class).or_insert(0) += n;
        self.total_sent += n;
    }

    /// Messages sent in one class.
    pub fn sent(&self, class: MessageClass) -> u64 {
        self.counters.get(&class).copied().unwrap_or(0)
    }

    /// Total messages sent.
    pub fn total_sent(&self) -> u64 {
        self.total_sent
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> &BTreeMap<MessageClass, u64> {
        &self.counters
    }

    /// Resets counters (between experiment phases).
    pub fn reset_counters(&mut self) {
        self.counters.clear();
        self.total_sent = 0;
    }

    /// The set of live nodes within `ttl` hops of `origin` (excluding the
    /// origin), in BFS order — a TTL-limited broadcast's reach. Each BFS
    /// edge traversal is one message if actually flooded; the returned
    /// `(node, hops, latency)` triples let callers do exact accounting.
    /// `latency` is the accumulated link latency along the node's BFS
    /// discovery path: when a latency-aware caller floods at virtual
    /// time `t`, the node receives the request at `t + latency`.
    pub fn flood_reach(&self, origin: NodeId, ttl: u32) -> Vec<(NodeId, u32, SimTime)> {
        let mut seen = vec![false; self.len()];
        seen[origin.index()] = true;
        // `out` doubles as the BFS queue: each hop expands the slice the
        // previous hop appended (the origin, at index 0, for the first).
        let mut out = vec![(origin, 0, SimTime::ZERO)];
        let mut level = 0..1;
        for hop in 1..=ttl {
            for i in level.clone() {
                let (u, _, du) = out[i];
                for e in self.graph.neighbors(u) {
                    let v = e.node;
                    if self.is_up(v) && !seen[v.index()] {
                        seen[v.index()] = true;
                        out.push((v, hop, du + e.latency));
                    }
                }
            }
            level = level.end..out.len();
            if level.is_empty() {
                break;
            }
        }
        out.remove(0);
        out
    }

    /// Number of edge messages a TTL flood from `origin` would send
    /// (every live node within reach forwards to all its live neighbors
    /// except where TTL expires — the classic Gnutella cost).
    pub fn flood_message_count(&self, origin: NodeId, ttl: u32) -> u64 {
        self.flood_forwards(origin, ttl, &self.flood_reach(origin, ttl))
    }

    /// [`Network::flood_message_count`] from a reach already computed by
    /// [`Network::flood_reach`]`(origin, ttl)`: the origin and every
    /// reached node with TTL left (hop < `ttl`) forward to all their live
    /// neighbors, duplicates included. Zero when `ttl` is 0 or the
    /// origin is down.
    pub fn flood_forwards(
        &self,
        origin: NodeId,
        ttl: u32,
        reach: &[(NodeId, u32, SimTime)],
    ) -> u64 {
        if ttl == 0 || !self.is_up(origin) {
            return 0;
        }
        let live_degree = |u| self.live_neighbors(u).count() as u64;
        let relays = reach.iter().filter(|&&(_, hop, _)| hop < ttl);
        live_degree(origin) + relays.map(|&(v, _, _)| live_degree(v)).sum::<u64>()
    }

    /// One step of a *random walk* over live neighbors.
    pub fn random_step<R: Rng + ?Sized>(&self, from: NodeId, rng: &mut R) -> Option<NodeId> {
        let nbrs: Vec<NodeId> = self.live_neighbors(from).collect();
        if nbrs.is_empty() {
            None
        } else {
            Some(nbrs[rng.gen_range(0..nbrs.len())])
        }
    }

    /// One step of a *selective walk* (§4.1, after Adamic et al. \[23\]):
    /// the highest-degree live neighbor not yet visited.
    pub fn selective_step(&self, from: NodeId, visited: &[bool]) -> Option<NodeId> {
        self.live_neighbors(from)
            .filter(|n| !visited[n.index()])
            .max_by_key(|n| self.graph.degree(*n))
    }

    /// Runs a selective walk from `origin` until `stop` returns true or
    /// `max_hops` is exhausted. Returns the visited path (excluding
    /// origin) and whether the stop condition was met. Each hop is one
    /// message; the caller accounts them.
    pub fn selective_walk<F: FnMut(NodeId) -> bool>(
        &self,
        origin: NodeId,
        max_hops: u32,
        mut stop: F,
    ) -> (Vec<NodeId>, bool) {
        let mut visited = vec![false; self.len()];
        visited[origin.index()] = true;
        let mut path = Vec::new();
        let mut cur = origin;
        for _ in 0..max_hops {
            let Some(next) = self.selective_step(cur, &visited) else {
                return (path, false);
            };
            visited[next.index()] = true;
            path.push(next);
            if stop(next) {
                return (path, true);
            }
            cur = next;
        }
        (path, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Graph, TopologyConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(n: usize, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = TopologyConfig {
            nodes: n,
            ..Default::default()
        };
        Network::new(Graph::barabasi_albert(&cfg, &mut rng))
    }

    #[test]
    fn liveness_toggling() {
        let mut n = net(10, 1);
        assert_eq!(n.up_count(), 10);
        n.take_down(NodeId(3));
        assert!(!n.is_up(NodeId(3)));
        assert_eq!(n.up_count(), 9);
        n.bring_up(NodeId(3));
        assert_eq!(n.up_count(), 10);
    }

    #[test]
    fn counters_accumulate() {
        let mut n = net(5, 2);
        n.count_message(MessageClass::Push);
        n.count_messages(MessageClass::Query, 10);
        assert_eq!(n.sent(MessageClass::Push), 1);
        assert_eq!(n.sent(MessageClass::Query), 10);
        assert_eq!(n.sent(MessageClass::Flood), 0);
        assert_eq!(n.total_sent(), 11);
        n.reset_counters();
        assert_eq!(n.total_sent(), 0);
    }

    #[test]
    fn flood_reach_respects_ttl_and_liveness() {
        let mut n = Network::new(Graph::ring(10, SimTime::from_millis(1)));
        let reach1 = n.flood_reach(NodeId(0), 1);
        assert_eq!(reach1.len(), 2, "two ring neighbors");
        let reach2 = n.flood_reach(NodeId(0), 2);
        assert_eq!(reach2.len(), 4);
        assert!(reach2.iter().all(|&(_, h, _)| h <= 2));

        n.take_down(NodeId(1));
        let reach = n.flood_reach(NodeId(0), 3);
        // One side of the ring is cut at node 1.
        assert!(reach.iter().all(|&(v, _, _)| v != NodeId(1)));
        assert_eq!(reach.len(), 3, "only the other direction: 9, 8, 7");
    }

    #[test]
    fn flood_reach_accumulates_latency() {
        let n = Network::new(Graph::ring(10, SimTime::from_millis(2)));
        let reach = n.flood_reach(NodeId(0), 3);
        assert_eq!(reach.len(), 6);
        for &(v, hops, lat) in &reach {
            assert_eq!(
                lat,
                SimTime::from_millis(2 * hops as u64),
                "node {v:?} at {hops} hops"
            );
        }
    }

    #[test]
    fn flood_cost_grows_with_ttl() {
        let n = net(500, 3);
        let c1 = n.flood_message_count(NodeId(0), 1);
        let c2 = n.flood_message_count(NodeId(0), 2);
        let c3 = n.flood_message_count(NodeId(0), 3);
        assert!(c1 < c2 && c2 < c3, "{c1} {c2} {c3}");
        assert_eq!(n.flood_message_count(NodeId(0), 0), 0);
    }

    #[test]
    fn flood_cost_on_star_is_exact() {
        let mut n = Network::new(Graph::star(6, SimTime::from_millis(1)));
        // From center: 5 messages at hop 1; then each leaf forwards back
        // to the center (duplicate) at hop 2: 5 more.
        assert_eq!(n.flood_message_count(NodeId(0), 1), 5);
        assert_eq!(n.flood_message_count(NodeId(0), 2), 10);
        // A down leaf neither receives nor forwards; a down origin sends
        // nothing.
        n.take_down(NodeId(5));
        assert_eq!(n.flood_message_count(NodeId(0), 2), 8);
        n.take_down(NodeId(0));
        assert_eq!(n.flood_message_count(NodeId(0), 2), 0);
    }

    #[test]
    fn selective_walk_prefers_hubs() {
        // Star: any leaf's best neighbor is the hub.
        let n = Network::new(Graph::star(8, SimTime::from_millis(1)));
        let (path, found) = n.selective_walk(NodeId(3), 5, |v| v == NodeId(0));
        assert!(found);
        assert_eq!(path, vec![NodeId(0)], "first hop reaches the hub");
    }

    #[test]
    fn selective_walk_does_not_revisit() {
        let n = Network::new(Graph::ring(6, SimTime::from_millis(1)));
        let (path, found) = n.selective_walk(NodeId(0), 10, |_| false);
        assert!(!found);
        let mut dedup = path.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), path.len(), "no revisits");
        assert!(path.len() >= 4, "walk should cover most of the ring");
    }

    #[test]
    fn random_step_stays_live() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut n = net(50, 8);
        // Kill most nodes; steps must land on live ones only.
        for i in 10..50 {
            n.take_down(NodeId(i));
        }
        for i in 0..10 {
            if let Some(next) = n.random_step(NodeId(i), &mut rng) {
                assert!(n.is_up(next));
            }
        }
    }

    #[test]
    fn walk_in_dead_region_terminates() {
        let mut n = Network::new(Graph::ring(5, SimTime::from_millis(1)));
        n.take_down(NodeId(1));
        n.take_down(NodeId(4));
        let (path, found) = n.selective_walk(NodeId(0), 10, |_| false);
        assert!(path.is_empty());
        assert!(!found);
    }
}
