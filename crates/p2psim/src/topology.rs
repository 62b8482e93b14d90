//! Topology generation — our BRITE substitute (§6.2.1: "the BRITE
//! universal topology generator to simulate a power law P2P network,
//! with an average degree of 4").
//!
//! BRITE's power-law mode is Barabási–Albert preferential attachment,
//! reimplemented here: nodes arrive one by one and connect `m` edges to
//! existing nodes with probability proportional to degree. `m = 2` gives
//! average degree ≈ 4 (each edge contributes 2 degree). Nodes are placed
//! uniformly on a plane and link latency grows linearly with euclidean
//! distance (BRITE's light-speed delay model), which the construction
//! protocol uses to pick the *closest* summary peer.

use rand::Rng;

use crate::network::NodeId;
use crate::time::SimTime;

/// One undirected edge endpoint with its latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeTo {
    /// Neighbor node.
    pub node: NodeId,
    /// One-way link latency.
    pub latency: SimTime,
}

/// An undirected graph with plane positions and per-link latencies.
#[derive(Debug, Clone)]
pub struct Graph {
    adj: Vec<Vec<EdgeTo>>,
    pos: Vec<(f64, f64)>,
}

/// Topology generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct TopologyConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Edges added per arriving node (Barabási–Albert `m`); average
    /// degree converges to `2m`. The paper's setup: `m = 2` → degree 4.
    pub m: usize,
    /// Plane side length, in latency units: two nodes at opposite corners
    /// are `sqrt(2) * side * latency_per_unit` apart.
    pub side: f64,
    /// Latency per plane-distance unit.
    pub latency_per_unit: SimTime,
    /// Minimum link latency (propagation floor).
    pub min_latency: SimTime,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self {
            nodes: 100,
            m: 2,
            side: 100.0,
            // 1 unit ≈ 1 ms across a 100-unit plane: intra-continental RTTs.
            latency_per_unit: SimTime::from_millis(1),
            min_latency: SimTime::from_millis(5),
        }
    }
}

impl Graph {
    /// An empty graph of `n` isolated nodes at the origin.
    pub fn empty(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            pos: vec![(0.0, 0.0); n],
        }
    }

    /// Barabási–Albert preferential attachment (BRITE's power-law mode).
    ///
    /// Starts from a small clique of `m + 1` nodes, then each arriving
    /// node draws `m` distinct targets weighted by current degree.
    pub fn barabasi_albert<R: Rng + ?Sized>(cfg: &TopologyConfig, rng: &mut R) -> Self {
        let n = cfg.nodes;
        let m = cfg.m.max(1);
        let mut g = Graph::empty(n);
        for p in g.pos.iter_mut() {
            *p = (rng.gen_range(0.0..cfg.side), rng.gen_range(0.0..cfg.side));
        }
        if n == 0 {
            return g;
        }
        let seed = (m + 1).min(n);
        // Seed clique.
        for i in 0..seed {
            for j in (i + 1)..seed {
                g.connect(NodeId(i as u32), NodeId(j as u32), cfg);
            }
        }
        // Repeated-endpoint list: preferential attachment by sampling it.
        let mut endpoints: Vec<u32> = Vec::with_capacity(2 * m * n);
        for (i, adjacency) in g.adj.iter().enumerate().take(seed) {
            for _ in 0..adjacency.len() {
                endpoints.push(i as u32);
            }
        }
        for i in seed..n {
            let mut targets: Vec<u32> = Vec::with_capacity(m);
            let mut guard = 0;
            while targets.len() < m.min(i) && guard < 10_000 {
                guard += 1;
                let t = if endpoints.is_empty() {
                    rng.gen_range(0..i as u32)
                } else {
                    endpoints[rng.gen_range(0..endpoints.len())]
                };
                if t != i as u32 && !targets.contains(&t) {
                    targets.push(t);
                }
            }
            for t in targets {
                g.connect(NodeId(i as u32), NodeId(t), cfg);
                endpoints.push(i as u32);
                endpoints.push(t);
            }
        }
        g
    }

    /// A ring of `n` nodes (tests/debugging).
    pub fn ring(n: usize, latency: SimTime) -> Self {
        let mut g = Graph::empty(n);
        for i in 0..n {
            let j = (i + 1) % n;
            if i != j {
                g.add_edge(NodeId(i as u32), NodeId(j as u32), latency);
            }
        }
        g
    }

    /// A star with node 0 at the center (tests/debugging).
    pub fn star(n: usize, latency: SimTime) -> Self {
        let mut g = Graph::empty(n);
        for i in 1..n {
            g.add_edge(NodeId(0), NodeId(i as u32), latency);
        }
        g
    }

    fn connect(&mut self, a: NodeId, b: NodeId, cfg: &TopologyConfig) {
        let d = self.distance(a, b);
        let lat = SimTime(
            cfg.min_latency
                .0
                .max((d * cfg.latency_per_unit.0 as f64) as u64),
        );
        self.add_edge(a, b, lat);
    }

    /// Adds an undirected edge (no-op when it already exists).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, latency: SimTime) {
        if a == b || self.adj[a.0 as usize].iter().any(|e| e.node == b) {
            return;
        }
        self.adj[a.0 as usize].push(EdgeTo { node: b, latency });
        self.adj[b.0 as usize].push(EdgeTo { node: a, latency });
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Neighbors of a node.
    pub fn neighbors(&self, n: NodeId) -> &[EdgeTo] {
        &self.adj[n.0 as usize]
    }

    /// Degree of a node.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n.0 as usize].len()
    }

    /// Plane position of a node.
    pub fn position(&self, n: NodeId) -> (f64, f64) {
        self.pos[n.0 as usize]
    }

    /// Euclidean distance between two nodes on the plane.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        let (ax, ay) = self.position(a);
        let (bx, by) = self.position(b);
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// Latency of the direct link `a → b` (None when not adjacent).
    pub fn link_latency(&self, a: NodeId, b: NodeId) -> Option<SimTime> {
        self.adj[a.0 as usize]
            .iter()
            .find(|e| e.node == b)
            .map(|e| e.latency)
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Average degree.
    pub fn average_degree(&self) -> f64 {
        if self.adj.is_empty() {
            return 0.0;
        }
        2.0 * self.edge_count() as f64 / self.adj.len() as f64
    }

    /// True when every node reaches every other (BFS from node 0).
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut visited = 1;
        while let Some(i) = stack.pop() {
            for e in &self.adj[i] {
                let j = e.node.0 as usize;
                if !seen[j] {
                    seen[j] = true;
                    visited += 1;
                    stack.push(j);
                }
            }
        }
        visited == self.adj.len()
    }

    /// Degree histogram: `hist[d]` = number of nodes with degree `d`.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let max = self.adj.iter().map(Vec::len).max().unwrap_or(0);
        let mut hist = vec![0usize; max + 1];
        for a in &self.adj {
            hist[a.len()] += 1;
        }
        hist
    }

    /// Least-squares slope of `log(count)` vs `log(degree)` — a crude
    /// power-law exponent estimate (should be clearly negative for BA).
    pub fn power_law_slope(&self) -> f64 {
        let hist = self.degree_histogram();
        let pts: Vec<(f64, f64)> = hist
            .iter()
            .enumerate()
            .filter(|&(d, &c)| d > 0 && c > 0)
            .map(|(d, &c)| ((d as f64).ln(), (c as f64).ln()))
            .collect();
        if pts.len() < 2 {
            return 0.0;
        }
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        (n * sxy - sx * sy) / (n * sxx - sx * sx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(n: usize) -> TopologyConfig {
        TopologyConfig {
            nodes: n,
            ..Default::default()
        }
    }

    #[test]
    fn ba_average_degree_is_about_2m() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = Graph::barabasi_albert(&cfg(1000), &mut rng);
        let avg = g.average_degree();
        // Paper setup: m=2 → average degree ≈ 4.
        assert!((3.6..=4.4).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn ba_is_connected_and_power_law() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = Graph::barabasi_albert(&cfg(2000), &mut rng);
        assert!(g.is_connected());
        let slope = g.power_law_slope();
        assert!(
            slope < -1.0,
            "expected heavy-tailed degree dist, slope {slope}"
        );
        // Hubs exist: max degree far above the average.
        let max_deg = g.degree_histogram().len() - 1;
        assert!(max_deg > 20, "max degree {max_deg}");
    }

    #[test]
    fn ba_tiny_networks() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [0usize, 1, 2, 3, 5] {
            let g = Graph::barabasi_albert(&cfg(n), &mut rng);
            assert_eq!(g.len(), n);
            assert!(g.is_connected(), "n={n}");
        }
    }

    #[test]
    fn latencies_respect_floor_and_distance() {
        let mut rng = StdRng::seed_from_u64(4);
        let c = cfg(200);
        let g = Graph::barabasi_albert(&c, &mut rng);
        for i in 0..g.len() {
            for e in g.neighbors(NodeId(i as u32)) {
                assert!(e.latency >= c.min_latency);
                // Symmetric.
                assert_eq!(g.link_latency(e.node, NodeId(i as u32)), Some(e.latency));
            }
        }
    }

    #[test]
    fn ring_and_star_shapes() {
        let ring = Graph::ring(10, SimTime::from_millis(1));
        assert_eq!(ring.edge_count(), 10);
        assert!(ring.is_connected());
        assert!(ring.degree_histogram()[2] == 10);

        let star = Graph::star(10, SimTime::from_millis(1));
        assert_eq!(star.edge_count(), 9);
        assert_eq!(star.degree(NodeId(0)), 9);
        assert!(star.is_connected());
    }

    #[test]
    fn add_edge_dedupes_and_rejects_self_loop() {
        let mut g = Graph::empty(3);
        g.add_edge(NodeId(0), NodeId(1), SimTime::from_millis(1));
        g.add_edge(NodeId(1), NodeId(0), SimTime::from_millis(9));
        g.add_edge(NodeId(2), NodeId(2), SimTime::from_millis(1));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId(2)), 0);
        assert_eq!(
            g.link_latency(NodeId(0), NodeId(1)),
            Some(SimTime::from_millis(1))
        );
        assert_eq!(g.link_latency(NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut g = Graph::empty(4);
        g.add_edge(NodeId(0), NodeId(1), SimTime::from_millis(1));
        g.add_edge(NodeId(2), NodeId(3), SimTime::from_millis(1));
        assert!(!g.is_connected());
    }

    #[test]
    fn determinism_per_seed() {
        let a = Graph::barabasi_albert(&cfg(300), &mut StdRng::seed_from_u64(9));
        let b = Graph::barabasi_albert(&cfg(300), &mut StdRng::seed_from_u64(9));
        assert_eq!(a.edge_count(), b.edge_count());
        for i in 0..a.len() {
            assert_eq!(a.neighbors(NodeId(i as u32)), b.neighbors(NodeId(i as u32)));
        }
    }
}
