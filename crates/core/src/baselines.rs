//! The comparison algorithms of §6.2.3.
//!
//! * **Pure flooding** — broadcast the query with TTL 3 ("very used in
//!   real life, due to their simplicity and the lack of complex state
//!   information at each peer"), measured on the simulated power-law
//!   topology: every forward is a message, matching reached peers
//!   respond.
//! * **Centralized index** — "the best results that can be expected from
//!   any query processing algorithm" when complete and consistent: one
//!   message to the index, one to each relevant peer, one response each.

use p2psim::network::{Network, NodeId};
use rand::Rng;

/// Result of one baseline query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineOutcome {
    /// Messages exchanged.
    pub messages: u64,
    /// Relevant peers reached (query recall numerator).
    pub hits_reached: usize,
    /// Total relevant peers in the network.
    pub hits_total: usize,
}

impl BaselineOutcome {
    /// Fraction of relevant peers actually reached.
    pub fn recall(&self) -> f64 {
        if self.hits_total == 0 {
            1.0
        } else {
            self.hits_reached as f64 / self.hits_total as f64
        }
    }
}

/// Pure flooding from `origin` with the given TTL. `matches(peer)` is
/// the ground truth; reached matching peers respond (one message each).
pub fn flood_query<F: Fn(NodeId) -> bool>(
    net: &Network,
    origin: NodeId,
    ttl: u32,
    matches: F,
) -> BaselineOutcome {
    let reached = net.flood_reach(origin, ttl);
    let forwards = net.flood_forwards(origin, ttl, &reached);
    let hits_total = (0..net.len() as u32)
        .map(NodeId)
        .filter(|&p| net.is_up(p) && matches(p))
        .count();
    let hits_reached = reached.iter().filter(|&&(p, _, _)| matches(p)).count()
        + usize::from(matches(origin) && net.is_up(origin));
    BaselineOutcome {
        messages: forwards + hits_reached as u64,
        hits_reached,
        hits_total,
    }
}

/// Centralized index: assumes a complete, consistent index. One query
/// message, one forward per relevant peer, one response per relevant
/// peer: `1 + 2·hits`.
pub fn centralized_query<F: Fn(NodeId) -> bool>(net: &Network, matches: F) -> BaselineOutcome {
    let hits = (0..net.len() as u32)
        .map(NodeId)
        .filter(|&p| net.is_up(p) && matches(p))
        .count();
    BaselineOutcome {
        messages: 1 + 2 * hits as u64,
        hits_reached: hits,
        hits_total: hits,
    }
}

/// Averages flooding cost/recall over `samples` random origins.
pub fn flood_query_averaged<R: Rng + ?Sized, F: Fn(NodeId) -> bool>(
    net: &Network,
    ttl: u32,
    samples: usize,
    rng: &mut R,
    matches: F,
) -> (f64, f64) {
    let mut msg_sum = 0.0;
    let mut recall_sum = 0.0;
    let mut taken = 0usize;
    let mut guard = 0usize;
    while taken < samples && guard < samples * 20 {
        guard += 1;
        let origin = NodeId(rng.gen_range(0..net.len() as u32));
        if !net.is_up(origin) {
            continue;
        }
        let out = flood_query(net, origin, ttl, &matches);
        msg_sum += out.messages as f64;
        recall_sum += out.recall();
        taken += 1;
    }
    let n = taken.max(1) as f64;
    (msg_sum / n, recall_sum / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2psim::time::SimTime;
    use p2psim::topology::{Graph, TopologyConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn power_law_net(n: usize, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = TopologyConfig {
            nodes: n,
            ..Default::default()
        };
        Network::new(Graph::barabasi_albert(&cfg, &mut rng))
    }

    #[test]
    fn flooding_cost_explodes_with_ttl() {
        let net = power_law_net(1000, 1);
        let f1 = flood_query(&net, NodeId(0), 1, |_| false).messages;
        let f3 = flood_query(&net, NodeId(0), 3, |_| false).messages;
        assert!(f3 > 5 * f1, "TTL3 {f3} vs TTL1 {f1}");
    }

    #[test]
    fn flooding_recall_is_partial_on_large_networks() {
        let net = power_law_net(3000, 2);
        // 10% of peers match.
        let out = flood_query(&net, NodeId(5), 3, |p| p.0 % 10 == 0);
        assert!(out.hits_total >= 290);
        assert!(out.recall() < 1.0, "TTL-3 cannot cover 3000 peers");
        assert!(out.recall() > 0.0);
    }

    #[test]
    fn centralized_matches_closed_form() {
        let net = power_law_net(500, 3);
        let out = centralized_query(&net, |p| p.0 % 10 == 0);
        assert_eq!(out.hits_total, 50);
        assert_eq!(out.messages, 1 + 2 * 50);
        assert_eq!(out.recall(), 1.0);
        // Agrees with §6.2.3's formula 1 + 2·(0.1·n).
        assert_eq!(
            out.messages as f64,
            crate::costmodel::centralized_cost(500, 0.1)
        );
    }

    #[test]
    fn down_peers_neither_respond_nor_count() {
        let mut net = power_law_net(200, 4);
        for i in 0..100 {
            net.take_down(NodeId(i));
        }
        let out = centralized_query(&net, |p| p.0 % 10 == 0);
        assert_eq!(out.hits_total, 10, "only live matching peers");
    }

    #[test]
    fn ring_flood_is_exact() {
        let net = Network::new(Graph::ring(10, SimTime::from_millis(1)));
        // TTL=2 from node 0: forwards = 2 (hop1) + 4 (hop2: nodes 1,9
        // each forward to both neighbors, duplicates included).
        let out = flood_query(&net, NodeId(0), 2, |p| p.0 == 2);
        assert_eq!(out.hits_reached, 1);
        assert_eq!(out.messages, 2 + 4 + 1);
    }

    #[test]
    fn averaged_flooding_is_stable() {
        let net = power_law_net(800, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let (msgs, recall) = flood_query_averaged(&net, 3, 25, &mut rng, |p| p.0 % 10 == 0);
        assert!(msgs > 100.0);
        assert!((0.0..=1.0).contains(&recall));
    }
}
