//! Partition score: the category-utility measure steering the
//! summarization service.
//!
//! §3.2.2: cells are incorporated "with a top-down approach inspired of
//! D.H. Fisher's Cobweb", and the create/merge/split operators are applied
//! "depending on partition's score". We use Gluck & Corter's category
//! utility, the score Cobweb itself optimizes, computed over the fuzzy
//! label-weight histograms the tree maintains:
//!
//! ```text
//! CU({C1..Ck} of N) = (1/k) Σ_i P(Ci) [ Σ_a Σ_l P(l|Ci)² − Σ_a Σ_l P(l|N)² ]
//! ```
//!
//! where `P(l|X)` is label weight / node count. Weights are fractional
//! (cells carry fuzzy tuple counts) which generalizes the classic formula
//! without changing its fixed points on crisp data.

use crate::hierarchy::{NodeId, SummaryTree};

/// Σ_a Σ_l P(l|node)² for one node's histogram; `extra` optionally adds a
/// hypothetical cell (label per attribute with a weight) before scoring.
pub(crate) fn expected_correct(
    hist: &[Vec<f64>],
    count: f64,
    extra: Option<(&[fuzzy::descriptor::LabelId], f64)>,
) -> f64 {
    let total = count + extra.map(|(_, w)| w).unwrap_or(0.0);
    if total <= 0.0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for (attr, labels) in hist.iter().enumerate() {
        for (l, &w) in labels.iter().enumerate() {
            let mut w = w;
            if let Some((key, extra_w)) = extra {
                if key[attr].index() == l {
                    w += extra_w;
                }
            }
            if w > 0.0 {
                let p = w / total;
                sum += p * p;
            }
        }
    }
    sum
}

/// Category utility of the current partition of `parent`'s children,
/// with an optional hypothetical insertion of a cell into one child
/// (`pending`: child index in `parent.children`, cell labels, weight).
///
/// Returns 0 for childless nodes.
pub fn category_utility(
    tree: &SummaryTree,
    parent: NodeId,
    pending: Option<(usize, &[fuzzy::descriptor::LabelId], f64)>,
) -> f64 {
    let p = tree.node(parent);
    let k = p.children.len();
    if k == 0 {
        return 0.0;
    }
    let extra_w = pending.map(|(_, _, w)| w).unwrap_or(0.0);
    let parent_total = p.count + extra_w;
    if parent_total <= 0.0 {
        return 0.0;
    }
    let parent_ec = expected_correct(&p.hist, p.count, pending.map(|(_, key, w)| (key, w)));
    let mut cu = 0.0;
    for (i, &child) in p.children.iter().enumerate() {
        let c = tree.node(child);
        let child_pending = match pending {
            Some((idx, key, w)) if idx == i => Some((key, w)),
            _ => None,
        };
        let child_total = c.count + child_pending.map(|(_, w)| w).unwrap_or(0.0);
        if child_total <= 0.0 {
            continue;
        }
        let child_ec = expected_correct(&c.hist, c.count, child_pending);
        cu += (child_total / parent_total) * (child_ec - parent_ec);
    }
    cu / k as f64
}

/// Category utility if a brand-new singleton child were added for the
/// cell. A singleton's `Σ P(l|C)²` is exactly the number of attributes
/// (every label is certain).
pub fn category_utility_with_new_child(
    tree: &SummaryTree,
    parent: NodeId,
    key: &[fuzzy::descriptor::LabelId],
    weight: f64,
) -> f64 {
    LevelTerms::new(tree, parent, key, weight).create()
}

/// The category-utility terms of one Cobweb descent level, computed once
/// and shared by every operator scored there. A child's term is
/// `P(C) · (Σ P(l|C)² − Σ P(l|N)²)` with the pending cell counted in
/// the parent `N`; `None` marks a child without weight, which the score
/// skips. Every score sums its terms in child order, so it is
/// bit-identical to evaluating [`category_utility`] per candidate.
#[derive(Debug)]
pub(crate) struct LevelTerms {
    /// Parent count plus the pending weight.
    pub(crate) total: f64,
    /// The parent's `Σ P(l|N)²` with the pending cell.
    pub(crate) ec: f64,
    /// The pending cell's weight.
    weight: f64,
    /// The pending cell's arity (a singleton's `Σ P(l|C)²`).
    arity: usize,
    /// Each child as it is.
    pub(crate) plain: Vec<Option<f64>>,
    /// Each child with the pending cell added.
    pub(crate) pending: Vec<Option<f64>>,
}

impl LevelTerms {
    /// The terms of `parent`'s children for a pending cell `key` of
    /// `weight`: one expected-correct sum for the parent and two per
    /// child.
    pub(crate) fn new(
        tree: &SummaryTree,
        parent: NodeId,
        key: &[fuzzy::descriptor::LabelId],
        weight: f64,
    ) -> Self {
        let p = tree.node(parent);
        let mut terms = Self {
            total: p.count + weight,
            ec: expected_correct(&p.hist, p.count, Some((key, weight))),
            weight,
            arity: key.len(),
            plain: Vec::with_capacity(p.children.len()),
            pending: Vec::with_capacity(p.children.len()),
        };
        if terms.total <= 0.0 {
            return terms;
        }
        for &child in &p.children {
            let c = tree.node(child);
            let plain = terms.term(c.count, expected_correct(&c.hist, c.count, None));
            let pending = terms.term(
                c.count + weight,
                expected_correct(&c.hist, c.count, Some((key, weight))),
            );
            terms.plain.push(plain);
            terms.pending.push(pending);
        }
        terms
    }

    /// The term of a (hypothetical) child of total weight `total` whose
    /// `Σ P(l|C)²` is `ec`; `None` when it carries no weight.
    pub(crate) fn term(&self, total: f64, ec: f64) -> Option<f64> {
        (total > 0.0).then(|| (total / self.total) * (ec - self.ec))
    }

    /// CU with the pending cell hosted by child `i`:
    /// [`category_utility`] with `pending = (i, key, weight)`.
    pub(crate) fn host(&self, i: usize) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        sum_hosting(0.0, &self.plain, &self.pending, i) / self.plain.len() as f64
    }

    /// CU with a new singleton child for the pending cell.
    pub(crate) fn create(&self) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        let mut cu = 0.0;
        for t in self.plain.iter().flatten() {
            cu += t;
        }
        cu += (self.weight / self.total) * (self.arity as f64 - self.ec);
        cu / (self.plain.len() + 1) as f64
    }
}

/// `init` plus every present term in order, taking member `i`'s
/// `pending` term in place of its `plain` one.
pub(crate) fn sum_hosting(
    init: f64,
    plain: &[Option<f64>],
    pending: &[Option<f64>],
    i: usize,
) -> f64 {
    let mut cu = init;
    for (j, (plain, pending)) in plain.iter().zip(pending).enumerate() {
        if let Some(t) = if j == i { pending } else { plain } {
            cu += t;
        }
    }
    cu
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellKey, SourceId};
    use fuzzy::descriptor::LabelId;

    fn key(labels: &[u16]) -> CellKey {
        CellKey(labels.iter().map(|&l| LabelId(l)).collect())
    }

    /// Two tight clusters must score higher than a scrambled partition.
    #[test]
    fn cu_prefers_coherent_partitions() {
        // Build: root -> host1{(0,0),(0,1)}, host2{(2,2),(2,3)}  (coherent)
        let mut coherent = SummaryTree::new("bk", vec![3, 4]);
        let root = coherent.root();
        let h1 = coherent.create_internal(root);
        let h2 = coherent.create_internal(root);
        for (host, labels) in [(h1, [0u16, 0]), (h1, [0, 1]), (h2, [2, 2]), (h2, [2, 3])] {
            let k = key(&labels);
            coherent.create_leaf(host, k.clone());
            coherent.add_to_cell(&k, SourceId(1), 1.0, &[1.0, 1.0], None);
        }
        coherent.check_invariants();

        // Scrambled: hosts mix the two clusters.
        let mut scrambled = SummaryTree::new("bk", vec![3, 4]);
        let root_s = scrambled.root();
        let s1 = scrambled.create_internal(root_s);
        let s2 = scrambled.create_internal(root_s);
        for (host, labels) in [(s1, [0u16, 0]), (s1, [2, 2]), (s2, [0, 1]), (s2, [2, 3])] {
            let k = key(&labels);
            scrambled.create_leaf(host, k.clone());
            scrambled.add_to_cell(&k, SourceId(1), 1.0, &[1.0, 1.0], None);
        }
        scrambled.check_invariants();

        let cu_good = category_utility(&coherent, root, None);
        let cu_bad = category_utility(&scrambled, root_s, None);
        assert!(
            cu_good > cu_bad,
            "coherent {cu_good} should beat scrambled {cu_bad}"
        );
    }

    #[test]
    fn cu_of_childless_node_is_zero() {
        let t = SummaryTree::new("bk", vec![2, 2]);
        assert_eq!(category_utility(&t, t.root(), None), 0.0);
    }

    /// Adding a cell identical to a child's content scores better into
    /// that child than into a dissimilar one.
    #[test]
    fn pending_insertion_prefers_similar_child() {
        let mut t = SummaryTree::new("bk", vec![3, 4]);
        let root = t.root();
        let ka = key(&[0, 0]);
        let kb = key(&[2, 3]);
        t.create_leaf(root, ka.clone());
        t.create_leaf(root, kb.clone());
        t.add_to_cell(&ka, SourceId(1), 2.0, &[1.0, 1.0], None);
        t.add_to_cell(&kb, SourceId(1), 2.0, &[1.0, 1.0], None);

        // Incoming cell (0,1): closer to child a (shares label 0 on attr 0).
        let incoming = [LabelId(0), LabelId(1)];
        let into_a = category_utility(&t, root, Some((0, &incoming, 1.0)));
        let into_b = category_utility(&t, root, Some((1, &incoming, 1.0)));
        assert!(into_a > into_b, "into_a {into_a} vs into_b {into_b}");
    }

    /// A cell completely unlike both children should prefer a new
    /// singleton child.
    #[test]
    fn dissimilar_cell_prefers_new_child() {
        let mut t = SummaryTree::new("bk", vec![3, 4]);
        let root = t.root();
        let ka = key(&[0, 0]);
        let kb = key(&[0, 1]);
        t.create_leaf(root, ka.clone());
        t.create_leaf(root, kb.clone());
        t.add_to_cell(&ka, SourceId(1), 3.0, &[1.0, 1.0], None);
        t.add_to_cell(&kb, SourceId(1), 3.0, &[1.0, 1.0], None);

        let incoming = [LabelId(2), LabelId(3)];
        let best_existing = (0..2)
            .map(|i| category_utility(&t, root, Some((i, &incoming, 1.0))))
            .fold(f64::NEG_INFINITY, f64::max);
        let as_new = category_utility_with_new_child(&t, root, &incoming, 1.0);
        assert!(
            as_new > best_existing,
            "new {as_new} vs existing {best_existing}"
        );
    }

    /// The shared level terms reproduce the per-candidate scores bit for
    /// bit.
    #[test]
    fn level_terms_match_the_direct_scores() {
        let mut t = SummaryTree::new("bk", vec![3, 4]);
        let root = t.root();
        let host = t.create_internal(root);
        // Irregular weights, so summing the terms in another order would
        // move low bits.
        for (i, labels) in [[0u16, 0], [0, 1], [2, 3], [1, 2], [2, 0], [1, 3], [0, 3]]
            .into_iter()
            .enumerate()
        {
            let parent = if i < 2 { host } else { root };
            let k = key(&labels);
            t.create_leaf(parent, k.clone());
            let w = 0.1 + 0.37 * i as f64 / 3.0;
            t.add_to_cell(&k, SourceId(1), w, &[1.0, 1.0], None);
        }
        let incoming = [LabelId(0), LabelId(2)];
        let terms = LevelTerms::new(&t, root, &incoming, 0.7);
        let k = t.node(root).children.len();
        for i in 0..k {
            let direct = category_utility(&t, root, Some((i, &incoming, 0.7)));
            assert_eq!(terms.host(i).to_bits(), direct.to_bits(), "host {i}");
        }
        // Creating is scoring the partition with the singleton in place.
        let mut created = t.clone();
        let k = CellKey(incoming.to_vec());
        created.create_leaf(root, k.clone());
        created.add_to_cell(&k, SourceId(2), 0.7, &[1.0, 1.0], None);
        let direct = category_utility(&created, root, None);
        assert_eq!(terms.create().to_bits(), direct.to_bits());
    }
}
