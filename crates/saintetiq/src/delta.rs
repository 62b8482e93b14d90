//! Incremental maintenance of merged summaries (delta reconciliation).
//!
//! [`crate::merge::merge_into`] is destructive: once a source's leaves
//! are folded into a global summary there is no way to take them out
//! again short of re-merging every other contributor from scratch. That
//! makes every reconciliation round O(|partners|) even when a single
//! cooperation-list entry crossed the α threshold.
//!
//! [`GsAccumulator`] fixes this at the engine layer. It keeps, per
//! cell, the contribution of every source that covers it — the
//! flattened leaves of each source's last pulled summary — and supports
//! [`GsAccumulator::update_source`] / [`GsAccumulator::remove_source`]
//! in O(|that source's cells|). The merged view is produced by
//! [`GsAccumulator::build_merged`], a **canonical** construction: cells
//! are incorporated in cell-key order and, within a cell, contributors
//! in source-id order. Because the construction is a pure function of
//! the *current* source set (never of the update history), two
//! accumulators holding the same contributions produce byte-identical
//! wire encodings — the property the domain layer's full-rebuild oracle
//! and the `gs_incremental` property tests rely on.
//!
//! Cost model: an update decodes and flattens only the changed source,
//! so the *merge/decode work* per round (the paper's §6.1 cost unit)
//! scales with the stale subset. `build_merged` stays Θ(contributions):
//! the merged summary stores one per-source entry per (source, cell)
//! pair, as the §4.2.2 `NewGS` token does. But each contribution costs
//! only a content add, a statistics merge and one weight in its cell's
//! path walk; Cobweb placement and the walks themselves scale with
//! cells × depth. Contributions are stored by cell, so a build never
//! regroups them. At 1 000 members (≈140 cells, ≈26 k contributions) a
//! build takes ≈9 ms in release on a 2-core x86-64 container.

use std::collections::BTreeMap;

use fuzzy::descriptor::Grade;
use relation::stats::AttributeStats;

use crate::cell::{CellKey, SourceId};
use crate::engine::{incorporate_cell, EngineConfig};
use crate::error::SummaryError;
use crate::hierarchy::SummaryTree;

/// One source's contribution to one cell: everything the merge needs to
/// fold it into a fresh tree.
#[derive(Debug, Clone)]
struct Contribution {
    weight: f64,
    grades: Vec<Grade>,
    stats: Vec<AttributeStats>,
}

/// A per-source accumulator for one merged (global) summary.
///
/// See the module docs for the design; in short: O(|source|) updates,
/// O(|merged summary|) canonical rebuilds, byte-stable encodings.
#[derive(Debug, Clone)]
pub struct GsAccumulator {
    bk_name: String,
    label_counts: Vec<usize>,
    config: EngineConfig,
    /// Each contributing source's cells.
    sources: BTreeMap<SourceId, Vec<CellKey>>,
    /// The contributions by cell, contributors in source order: the
    /// order [`GsAccumulator::build_merged`] folds them in.
    cells: BTreeMap<CellKey, BTreeMap<SourceId, Contribution>>,
}

impl GsAccumulator {
    /// An empty accumulator over the given Background Knowledge shape.
    pub fn new(bk_name: impl Into<String>, label_counts: Vec<usize>) -> Self {
        Self {
            bk_name: bk_name.into(),
            label_counts,
            config: EngineConfig::default(),
            sources: BTreeMap::new(),
            cells: BTreeMap::new(),
        }
    }

    /// Replaces (or inserts) `source`'s contribution with the leaves of
    /// `tree`. The tree must be built over the accumulator's BK.
    ///
    /// For the intended use — a peer's *local* summary, where `source`
    /// is the only contributor — the recorded weights, grades and
    /// statistics are exact. On a multi-source tree the per-cell grades
    /// and statistics are shared across contributors, so they are an
    /// upper bound; the P2P layer never needs that case.
    pub fn update_source(
        &mut self,
        source: SourceId,
        tree: &SummaryTree,
    ) -> Result<(), SummaryError> {
        if tree.bk_name() != self.bk_name || tree.label_counts() != &self.label_counts[..] {
            return Err(SummaryError::IncompatibleBk {
                left: self.bk_name.clone(),
                right: tree.bk_name().to_string(),
            });
        }
        self.remove_source(source);
        let mut keys = Vec::new();
        for (key, entry) in tree.cells() {
            let Some(&weight) = entry.content.per_source.get(&source) else {
                continue;
            };
            let contribution = Contribution {
                weight,
                grades: entry.content.max_grades.clone(),
                stats: entry.stats.clone(),
            };
            self.cells
                .entry(key.clone())
                .or_default()
                .insert(source, contribution);
            keys.push(key.clone());
        }
        self.sources.insert(source, keys);
        Ok(())
    }

    /// [`GsAccumulator::update_source`] from an encoded summary: decodes
    /// `bytes` and returns the payload size on success.
    pub fn update_source_encoded(
        &mut self,
        source: SourceId,
        bytes: &[u8],
    ) -> Result<usize, SummaryError> {
        let tree = crate::wire::decode(bytes)?;
        self.update_source(source, &tree)?;
        Ok(bytes.len())
    }

    /// Drops `source`'s contribution. Returns whether it was present.
    pub fn remove_source(&mut self, source: SourceId) -> bool {
        let Some(keys) = self.sources.remove(&source) else {
            return false;
        };
        for key in keys {
            if let Some(contributors) = self.cells.get_mut(&key) {
                contributors.remove(&source);
                if contributors.is_empty() {
                    self.cells.remove(&key);
                }
            }
        }
        true
    }

    /// True when `source` currently contributes.
    pub fn contains(&self, source: SourceId) -> bool {
        self.sources.contains_key(&source)
    }

    /// Number of contributing sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// True when no source contributes.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// The contributing sources, in id order.
    pub fn sources(&self) -> impl Iterator<Item = SourceId> + '_ {
        self.sources.keys().copied()
    }

    /// Drops every contribution (domain dissolution).
    pub fn clear(&mut self) {
        self.sources.clear();
        self.cells.clear();
    }

    /// Builds the canonical merged summary of the current contributions.
    ///
    /// Deterministic in the source *set*: cells are incorporated in
    /// cell-key order and contributors within a cell in source-id
    /// order, so the output — including every floating-point low bit of
    /// the folded statistics — depends only on what is contributed, not
    /// on the order updates and removals happened in.
    ///
    /// Each cell is folded once: its first positive-weight contributor
    /// places the leaf through Cobweb ([`incorporate_cell`]); the rest
    /// are added to the cell's content and statistics in source order,
    /// and the leaf's path takes all their weights in one walk.
    /// Non-positive weights are skipped (their statistics still merge
    /// once the leaf exists), as a per-contribution replay would.
    pub fn build_merged(&self) -> SummaryTree {
        let mut tree = SummaryTree::new(self.bk_name.clone(), self.label_counts.clone());
        let mut weights = Vec::new();
        for (key, contributors) in &self.cells {
            let mut rest = contributors.iter();
            // Before the first placement the cell has no leaf, so skipped
            // contributors have nothing to merge their statistics into.
            let Some((&first_src, first)) = rest.by_ref().find(|(_, c)| c.weight > 0.0) else {
                continue;
            };
            incorporate_cell(
                &mut tree,
                &self.config,
                key,
                first_src,
                first.weight,
                &first.grades,
                None,
            );
            let entry = tree
                .cell_entry_mut(key)
                .expect("the first contributor placed the leaf");
            entry.merge_stats(&first.stats);
            weights.clear();
            for (&src, c) in rest {
                if c.weight > 0.0 {
                    entry.content.add(src, c.weight, &c.grades);
                    weights.push(c.weight);
                }
                entry.merge_stats(&c.stats);
            }
            let leaf = entry.leaf;
            tree.update_path(leaf, key, &weights);
        }
        tree
    }

    /// The per-contribution replay: every contribution on its own,
    /// placed through Cobweb when its cell is new and then added with a
    /// dense histogram delta, in cell-key order and within a cell in
    /// source order. The reference [`GsAccumulator::build_merged`] is
    /// checked against.
    #[cfg(test)]
    fn build_merged_reference(&self) -> SummaryTree {
        let mut tree = SummaryTree::new(self.bk_name.clone(), self.label_counts.clone());
        for (key, contributors) in &self.cells {
            for (&src, c) in contributors {
                if c.weight > 0.0 {
                    crate::engine::place_cell(&mut tree, &self.config, key, c.weight);
                    tree.add_to_cell_dense(key, src, c.weight, &c.grades);
                }
                tree.merge_cell_stats(key, &c.stats);
            }
        }
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SaintEtiQEngine;
    use crate::merge::merge_all;
    use crate::wire;
    use fuzzy::bk::BackgroundKnowledge;
    use fuzzy::descriptor::LabelId;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use relation::generator::{patient_table, MatchTarget, PatientDistributions};
    use relation::schema::Schema;

    fn local_summary(seed: u64, source: u32, n: usize) -> SummaryTree {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dist = PatientDistributions::default();
        let table = patient_table(&mut rng, n, &dist, &MatchTarget::default(), 0);
        let mut e = SaintEtiQEngine::new(
            BackgroundKnowledge::medical_cbk(),
            &Schema::patient(),
            EngineConfig::default(),
            SourceId(source),
        )
        .unwrap();
        e.summarize_table(&table);
        e.into_tree()
    }

    fn acc() -> GsAccumulator {
        GsAccumulator::new("medical-cbk-v1", vec![3, 3, 3, 12])
    }

    #[test]
    fn build_matches_merge_all_at_the_cell_level() {
        let locals: Vec<SummaryTree> = (0..6)
            .map(|i| local_summary(40 + i, i as u32, 60))
            .collect();
        let mut a = acc();
        for (i, t) in locals.iter().enumerate() {
            a.update_source(SourceId(i as u32), t).unwrap();
        }
        let built = a.build_merged();
        built.check_invariants();
        let merged = merge_all(
            locals[0].bk_name(),
            locals[0].label_counts(),
            locals.iter(),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(built.leaf_count(), merged.leaf_count());
        assert!((built.total_count() - merged.total_count()).abs() < 1e-6);
        assert_eq!(built.all_sources(), merged.all_sources());
        // Per-cell content is *exactly* equal: for any one cell, both
        // paths fold the same contributions in the same source order
        // (merge_all visits sources in order; build_merged orders
        // contributors per cell by source id), so even the
        // floating-point low bits of weights, grades and statistics
        // must agree — only the hierarchy above the cells may differ.
        for (k, entry) in merged.cells() {
            let b = &built.cells()[k];
            assert_eq!(b.content.per_source, entry.content.per_source);
            assert_eq!(b.content.weight, entry.content.weight);
            assert_eq!(b.content.max_grades, entry.content.max_grades);
            for (bs, ms) in b.stats.iter().zip(&entry.stats) {
                assert_eq!(bs.raw_parts(), ms.raw_parts());
            }
        }
    }

    #[test]
    fn encoding_is_canonical_in_the_source_set() {
        let locals: Vec<SummaryTree> = (0..5)
            .map(|i| local_summary(50 + i, i as u32, 40))
            .collect();
        let drifted = local_summary(99, 2, 40);

        // History A: enroll 0..5 in order, then re-pull source 2.
        let mut a = acc();
        for (i, t) in locals.iter().enumerate() {
            a.update_source(SourceId(i as u32), t).unwrap();
        }
        a.update_source(SourceId(2), &drifted).unwrap();

        // History B: reversed enrollment, a removal, a re-add, then the
        // same final contribution set.
        let mut b = acc();
        for (i, t) in locals.iter().enumerate().rev() {
            b.update_source(SourceId(i as u32), t).unwrap();
        }
        b.remove_source(SourceId(4));
        b.update_source(SourceId(2), &drifted).unwrap();
        b.update_source(SourceId(4), &locals[4]).unwrap();

        assert_eq!(
            wire::encode(&a.build_merged()),
            wire::encode(&b.build_merged()),
            "merged view is a pure function of the contribution set"
        );
    }

    #[test]
    fn update_and_remove_roundtrip() {
        let t1 = local_summary(60, 1, 50);
        let t2 = local_summary(61, 2, 50);
        let mut a = acc();
        a.update_source(SourceId(1), &t1).unwrap();
        a.update_source(SourceId(2), &t2).unwrap();
        assert_eq!(a.len(), 2);
        assert!(a.contains(SourceId(1)));

        assert!(a.remove_source(SourceId(2)));
        assert!(!a.remove_source(SourceId(2)), "double remove is a no-op");
        let solo = a.build_merged();
        assert_eq!(solo.all_sources(), vec![SourceId(1)]);
        // With only source 1 left, the merged view is source 1's cells.
        assert_eq!(solo.leaf_count(), t1.leaf_count());
        assert!((solo.total_count() - t1.total_count()).abs() < 1e-9);

        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.build_merged().leaf_count(), 0);
    }

    #[test]
    fn encoded_update_tracks_payload_bytes() {
        let t = local_summary(70, 3, 30);
        let bytes = wire::encode(&t);
        let mut a = acc();
        let n = a.update_source_encoded(SourceId(3), &bytes).unwrap();
        assert_eq!(n, bytes.len());
        assert!(a.contains(SourceId(3)));
        assert!(a.update_source_encoded(SourceId(4), &bytes[..10]).is_err());
        assert!(!a.contains(SourceId(4)), "failed decode leaves no entry");
    }

    #[test]
    fn incompatible_bk_rejected() {
        let t = local_summary(80, 1, 20);
        let mut wrong = GsAccumulator::new("other-bk", t.label_counts().to_vec());
        assert!(matches!(
            wrong.update_source(SourceId(1), &t),
            Err(SummaryError::IncompatibleBk { .. })
        ));
        let mut wrong_shape = GsAccumulator::new(t.bk_name(), vec![1, 2]);
        assert!(wrong_shape.update_source(SourceId(1), &t).is_err());
    }

    /// Asserts that two trees agree node by node — arena ids, structure,
    /// and the bits of every count, histogram slot and intent — and in
    /// their encodings (cell contents, per-source weights, grades and
    /// statistics).
    fn assert_same_nodes(fold: &SummaryTree, reference: &SummaryTree) {
        let mut stack = vec![(fold.root(), reference.root())];
        while let Some((a, b)) = stack.pop() {
            assert_eq!(a, b, "arena layout");
            let (na, nb) = (fold.node(a), reference.node(b));
            assert_eq!(na.cell, nb.cell, "cell at {a:?}");
            assert_eq!(na.count.to_bits(), nb.count.to_bits(), "count at {a:?}");
            let bits =
                |h: &[Vec<f64>]| -> Vec<u64> { h.iter().flatten().map(|x| x.to_bits()).collect() };
            assert_eq!(bits(&na.hist), bits(&nb.hist), "histogram at {a:?}");
            assert_eq!(na.intent, nb.intent, "intent at {a:?}");
            assert_eq!(na.children.len(), nb.children.len(), "children at {a:?}");
            stack.extend(na.children.iter().copied().zip(nb.children.iter().copied()));
        }
        assert_eq!(fold.live_node_count(), reference.live_node_count());
        assert_eq!(wire::encode(fold), wire::encode(reference));
    }

    /// The random-sequence grid: small, so cells collect many
    /// contributors.
    const SHAPE: [usize; 3] = [3, 4, 5];

    /// A one-source tree over [`SHAPE`] with arbitrary (also
    /// non-positive) per-cell weights and statistics.
    fn source_tree(source: u32, cells: &[((u16, u16, u16), f64, f64)]) -> SummaryTree {
        let mut tree = SummaryTree::new("prop-bk", SHAPE.to_vec());
        let root = tree.root();
        for &((a, b, c), weight, raw) in cells {
            let key = CellKey(vec![LabelId(a), LabelId(b), LabelId(c)]);
            if tree.leaf_of(&key).is_none() {
                tree.create_leaf(root, key.clone());
            }
            let values = [Some(raw), None, Some(raw * 0.5)];
            let values = (weight > 0.0).then_some(&values[..]);
            let grades = [raw / 100.0, 1.0, 0.5];
            tree.add_to_cell(&key, SourceId(source), weight, &grades, values);
        }
        tree
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After any sequence of updates, removals and clears, the
        /// per-cell fold builds exactly the tree the per-contribution
        /// replay builds, and the same bytes as a fresh accumulator
        /// holding only the surviving contributions.
        #[test]
        fn fold_matches_per_contribution_replay(
            ops in prop::collection::vec(
                (
                    0u8..12,
                    0u32..10,
                    prop::collection::vec(
                        ((0u16..3, 0u16..4, 0u16..5), -0.5f64..3.0, 0.0f64..100.0),
                        0..14,
                    ),
                ),
                1..24,
            ),
        ) {
            let mut a = GsAccumulator::new("prop-bk", SHAPE.to_vec());
            let mut live: BTreeMap<u32, SummaryTree> = BTreeMap::new();
            for (kind, source, cells) in ops {
                match kind {
                    0..=8 => {
                        let tree = source_tree(source, &cells);
                        a.update_source(SourceId(source), &tree).unwrap();
                        live.insert(source, tree);
                    }
                    9 | 10 => {
                        prop_assert_eq!(a.remove_source(SourceId(source)), live.remove(&source).is_some());
                    }
                    _ => {
                        a.clear();
                        live.clear();
                    }
                }
                let built = a.build_merged();
                assert_same_nodes(&built, &a.build_merged_reference());
                let mut fresh = GsAccumulator::new("prop-bk", SHAPE.to_vec());
                for (&s, t) in &live {
                    fresh.update_source(SourceId(s), t).unwrap();
                }
                prop_assert_eq!(wire::encode(&built), wire::encode(&fresh.build_merged()));
                prop_assert_eq!(a.len(), live.len());
            }
        }
    }
}
