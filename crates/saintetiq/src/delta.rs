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
//! Storage: each cell holds its contributors as source-sorted parallel
//! columns — sources, weights, and `arity` grades and statistics per
//! contributor — so an update is a binary search and a splice, and a
//! build reads each cell's contributors as one contiguous run.
//!
//! Cost model: a pull ([`GsAccumulator::update_source_encoded`]) reads
//! the changed source's leaf records straight from its encoded summary
//! into the columns, without building a tree, so the *merge/decode
//! work* per round (the paper's §6.1 cost unit) scales with the stale
//! subset. `build_merged` stays Θ(contributions): the merged summary
//! stores one per-source entry per (source, cell) pair, as the §4.2.2
//! `NewGS` token does. But each contribution costs only a weight add, a
//! grade max and a statistics merge; Cobweb placement and the path
//! walks scale with cells × depth. At 1 000 members (≈140 cells, ≈26 k
//! contributions) a pull of one 4 KB local summary takes ≈21 µs and a
//! build ≈4.5 ms in release on a 2-core x86-64 container.

use std::collections::BTreeMap;

use fuzzy::descriptor::Grade;
use relation::stats::AttributeStats;

use crate::cell::{CellKey, SourceId};
use crate::engine::{place_cell, EngineConfig};
use crate::error::SummaryError;
use crate::hierarchy::SummaryTree;
use crate::wire::{self, Record};

/// The contributions to one cell: parallel columns in strictly
/// increasing source order, `arity` grades and statistics per
/// contributor.
#[derive(Debug, Clone, Default)]
struct Contributors {
    sources: Vec<SourceId>,
    weights: Vec<f64>,
    grades: Vec<Grade>,
    stats: Vec<AttributeStats>,
}

impl Contributors {
    fn grades(&self, i: usize, arity: usize) -> &[Grade] {
        &self.grades[i * arity..(i + 1) * arity]
    }

    fn stats(&self, i: usize, arity: usize) -> &[AttributeStats] {
        &self.stats[i * arity..(i + 1) * arity]
    }

    /// Sets `source`'s contribution, inserting it in source order.
    fn upsert(
        &mut self,
        source: SourceId,
        weight: f64,
        grades: &[Grade],
        stats: &[AttributeStats],
    ) {
        let arity = grades.len();
        match self.sources.binary_search(&source) {
            Ok(i) => {
                self.weights[i] = weight;
                self.grades[i * arity..(i + 1) * arity].copy_from_slice(grades);
                self.stats[i * arity..(i + 1) * arity].copy_from_slice(stats);
            }
            Err(i) => {
                // Grow by a quarter, not the default doubling: the
                // columns are most of a domain's resident GS state.
                if self.sources.len() == self.sources.capacity() {
                    let more = self.sources.len() / 4 + 1;
                    self.sources.reserve_exact(more);
                    self.weights.reserve_exact(more);
                    self.grades.reserve_exact(more * arity);
                    self.stats.reserve_exact(more * arity);
                }
                self.sources.insert(i, source);
                self.weights.insert(i, weight);
                let at = i * arity;
                self.grades.splice(at..at, grades.iter().copied());
                self.stats.splice(at..at, stats.iter().copied());
            }
        }
    }

    /// Drops `source`'s contribution, if any.
    fn remove(&mut self, source: SourceId, arity: usize) {
        if let Ok(i) = self.sources.binary_search(&source) {
            self.sources.remove(i);
            self.weights.remove(i);
            self.grades.drain(i * arity..(i + 1) * arity);
            self.stats.drain(i * arity..(i + 1) * arity);
        }
    }
}

/// One source's contributions, read and checked in full before any is
/// applied: every cell read, in strictly increasing order, with the
/// source's weight in it and the slot of its `arity` grades and
/// statistics, or `None` where the source does not contribute.
#[derive(Default)]
struct Staged {
    cells: Vec<(CellKey, Option<(f64, usize)>)>,
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
    /// Each contributing source's cells, in key order.
    sources: BTreeMap<SourceId, Vec<CellKey>>,
    /// The contributions by cell: the order
    /// [`GsAccumulator::build_merged`] folds them in.
    cells: BTreeMap<CellKey, Contributors>,
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

    fn arity(&self) -> usize {
        self.label_counts.len()
    }

    fn check_bk(&self, bk_name: &str, label_counts: &[usize]) -> Result<(), SummaryError> {
        if bk_name != self.bk_name || label_counts != &self.label_counts[..] {
            return Err(SummaryError::IncompatibleBk {
                left: self.bk_name.clone(),
                right: bk_name.to_string(),
            });
        }
        Ok(())
    }

    /// Replaces (or inserts) `source`'s contribution with the leaves of
    /// `tree`. The tree must be built over the accumulator's BK; a
    /// cell's grades past the BK arity are ignored and missing ones
    /// read as 0.
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
        self.check_bk(tree.bk_name(), tree.label_counts())?;
        let arity = self.arity();
        let mut staged = Staged::default();
        for (key, entry) in tree.cells() {
            let Some(&weight) = entry.content.per_source.get(&source) else {
                continue;
            };
            let slot = staged.cells.len();
            staged.cells.push((key.clone(), Some((weight, slot))));
            let grades = entry.content.max_grades.iter().copied();
            staged
                .grades
                .extend(grades.chain(std::iter::repeat(0.0)).take(arity));
            staged.stats.extend_from_slice(&entry.stats);
        }
        self.replace(source, staged);
        Ok(())
    }

    /// [`GsAccumulator::update_source`] from an encoded summary, without
    /// decoding it into a tree: the leaf records are read straight into
    /// the columns, with exactly the weights, grades and statistics
    /// `update_source(source, &wire::decode(bytes)?)` would record, and
    /// the same inputs rejected. Returns the payload size on success;
    /// on error the accumulator is unchanged.
    pub fn update_source_encoded(
        &mut self,
        source: SourceId,
        bytes: &[u8],
    ) -> Result<usize, SummaryError> {
        let mut buf = bytes;
        let header = wire::read_header(&mut buf)?;
        let mut staged = Staged::default();
        let mut slots = 0;
        wire::read_body(&mut buf, &header.label_counts, |record| {
            let Record::Leaf(leaf) = record else {
                return Ok(());
            };
            // The decoded cell's content: its weight for `source` sums
            // the matching entries from zero, and its grades are the
            // maxima from zero that `CellContent::add` keeps.
            let mut weight = None;
            for (s, w) in leaf.entries() {
                if s == source {
                    *weight.get_or_insert(0.0) += w;
                }
            }
            let Some(weight) = weight else {
                staged.cells.push((leaf.key, None));
                return Ok(());
            };
            let slot = slots;
            slots += 1;
            staged
                .grades
                .extend(leaf.grades().map(|g| if g > 0.0 { g } else { 0.0 }));
            staged.stats.extend(leaf.stats().map(|st| {
                let mut own = AttributeStats::new();
                own.merge(&st);
                own
            }));
            staged.cells.push((leaf.key, Some((weight, slot))));
            Ok(())
        })?;
        staged.cells.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        if staged.cells.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(SummaryError::Codec("duplicate cell".to_string()));
        }
        self.check_bk(&header.bk_name, &header.label_counts)?;
        self.replace(source, staged);
        Ok(bytes.len())
    }

    /// Makes the cells `source` contributes to in `staged` its whole
    /// contribution.
    fn replace(&mut self, source: SourceId, staged: Staged) {
        let arity = self.arity();
        if let Some(old) = self.sources.remove(&source) {
            for key in old {
                let kept = staged
                    .cells
                    .binary_search_by(|(k, _)| k.cmp(&key))
                    .is_ok_and(|i| staged.cells[i].1.is_some());
                if !kept {
                    self.remove_from_cell(&key, source);
                }
            }
        }
        let mut keys = Vec::with_capacity(staged.cells.len());
        for (key, contribution) in staged.cells {
            let Some((weight, slot)) = contribution else {
                continue;
            };
            let grades = &staged.grades[slot * arity..(slot + 1) * arity];
            let stats = &staged.stats[slot * arity..(slot + 1) * arity];
            match self.cells.get_mut(&key) {
                Some(cell) => cell.upsert(source, weight, grades, stats),
                None => {
                    let mut cell = Contributors::default();
                    cell.upsert(source, weight, grades, stats);
                    self.cells.insert(key.clone(), cell);
                }
            }
            keys.push(key);
        }
        self.sources.insert(source, keys);
    }

    /// Drops `source` from cell `key`, and the cell once it is empty.
    fn remove_from_cell(&mut self, key: &CellKey, source: SourceId) {
        let arity = self.arity();
        if let Some(cell) = self.cells.get_mut(key) {
            cell.remove(source, arity);
            if cell.sources.is_empty() {
                self.cells.remove(key);
            }
        }
    }

    /// Drops `source`'s contribution. Returns whether it was present.
    pub fn remove_source(&mut self, source: SourceId) -> bool {
        let Some(keys) = self.sources.remove(&source) else {
            return false;
        };
        for key in keys {
            self.remove_from_cell(&key, source);
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

    /// Verifies the storage invariants; panics with a description on
    /// violation. Every cell's columns are aligned (`arity` grades and
    /// statistics per contributor), its sources strictly increase, no
    /// cell is empty, and the per-source index lists, in strictly
    /// increasing order, exactly the cells each source contributes to.
    pub fn check_invariants(&self) {
        let arity = self.arity();
        for (key, cell) in &self.cells {
            let n = cell.sources.len();
            assert!(n > 0, "empty cell {key:?}");
            assert_eq!(cell.weights.len(), n, "weights misaligned at {key:?}");
            assert_eq!(cell.grades.len(), n * arity, "grades misaligned at {key:?}");
            assert_eq!(cell.stats.len(), n * arity, "stats misaligned at {key:?}");
            assert!(
                cell.sources.windows(2).all(|w| w[0] < w[1]),
                "sources out of order at {key:?}"
            );
            for s in &cell.sources {
                let keys = self.sources.get(s);
                assert!(
                    keys.is_some_and(|k| k.contains(key)),
                    "{s:?} contributes to {key:?} but the index omits it"
                );
            }
        }
        for (s, keys) in &self.sources {
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "index of {s:?} out of order"
            );
            for key in keys {
                assert!(
                    self.cells.get(key).is_some_and(|c| c.sources.contains(s)),
                    "index lists {key:?} for {s:?}, which does not contribute to it"
                );
            }
        }
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
    /// places the leaf through Cobweb; then every positive weight, in
    /// source order, is added to the cell's weight and grade maxima and
    /// the leaf's path takes them all in one walk, every contributor's
    /// statistics from the first on are merged in source order, and the
    /// per-source weights are collected once from the sorted run.
    /// Non-positive weights are skipped (their statistics still merge
    /// once the leaf exists), as a per-contribution replay would.
    pub fn build_merged(&self) -> SummaryTree {
        let arity = self.arity();
        let mut tree = SummaryTree::new(self.bk_name.clone(), self.label_counts.clone());
        let mut weights = Vec::new();
        for (key, cell) in &self.cells {
            // Before the first placement the cell has no leaf, so skipped
            // contributors have nothing to merge their statistics into.
            let Some(first) = cell.weights.iter().position(|&w| w > 0.0) else {
                continue;
            };
            place_cell(&mut tree, &self.config, key, cell.weights[first]);
            let entry = tree
                .cell_entry_mut(key)
                .expect("the first contributor placed the leaf");
            entry.content.max_grades.resize(arity, 0.0);
            weights.clear();
            for i in first..cell.sources.len() {
                let w = cell.weights[i];
                if w > 0.0 {
                    entry.content.weight += w;
                    let maxima = entry.content.max_grades.iter_mut();
                    for (slot, &g) in maxima.zip(cell.grades(i, arity)) {
                        if g > *slot {
                            *slot = g;
                        }
                    }
                    weights.push(w);
                }
                entry.merge_stats(cell.stats(i, arity));
            }
            entry.content.per_source = (first..cell.sources.len())
                .filter(|&i| cell.weights[i] > 0.0)
                .map(|i| (cell.sources[i], cell.weights[i]))
                .collect();
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
        let arity = self.arity();
        let mut tree = SummaryTree::new(self.bk_name.clone(), self.label_counts.clone());
        for (key, cell) in &self.cells {
            for (i, (&src, &w)) in cell.sources.iter().zip(&cell.weights).enumerate() {
                if w > 0.0 {
                    place_cell(&mut tree, &self.config, key, w);
                    tree.add_to_cell_dense(key, src, w, cell.grades(i, arity));
                }
                tree.merge_cell_stats(key, cell.stats(i, arity));
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
        let cells: Vec<_> = cells
            .iter()
            .map(|&(k, w, raw)| (source, k, w, raw))
            .collect();
        tree_of(&cells)
    }

    /// One `(source, cell, weight, raw value)` contribution.
    type Contribution = (u32, (u16, u16, u16), f64, f64);

    /// A tree over [`SHAPE`] taking each contribution in turn.
    fn tree_of(cells: &[Contribution]) -> SummaryTree {
        let mut tree = SummaryTree::new("prop-bk", SHAPE.to_vec());
        let root = tree.root();
        for &(source, (a, b, c), weight, raw) in cells {
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

    /// `update_source_encoded(source, bytes)` on a copy of `a` and
    /// `decode` + `update_source` on another agree on the outcome (error
    /// kind included), on the storage and on the merged bytes; on an
    /// error the accumulator is left exactly as it was.
    fn assert_pull_matches_decode(a: &GsAccumulator, source: SourceId, bytes: &[u8]) {
        let before = format!("{a:?}");
        let (mut pulled, mut decoded) = (a.clone(), a.clone());
        let direct = pulled.update_source_encoded(source, bytes);
        let via_tree = wire::decode(bytes).and_then(|t| decoded.update_source(source, &t));
        match (&direct, &via_tree) {
            (Ok(n), Ok(())) => assert_eq!(*n, bytes.len()),
            (Err(x), Err(y)) => {
                assert_eq!(std::mem::discriminant(x), std::mem::discriminant(y));
                assert_eq!(format!("{pulled:?}"), before, "an error changes nothing");
            }
            _ => panic!("pull {direct:?} but decode + update {via_tree:?}"),
        }
        pulled.check_invariants();
        assert_eq!(format!("{pulled:?}"), format!("{decoded:?}"));
        assert_eq!(
            wire::encode(&pulled.build_merged()),
            wire::encode(&decoded.build_merged())
        );
    }

    /// One leaf record written field by field: a cell, `(source,
    /// weight)` entries (a source may repeat), per-attribute grades (any
    /// sign) and one statistics slot `(flag, count, value)` for the
    /// first and last attribute (a flag of 1 writes a body, whatever its
    /// count; any other flag reads as empty).
    type RawLeaf = (
        (u16, u16, u16),
        Vec<(u32, f64)>,
        (f64, f64, f64),
        (u8, f64, f64),
    );

    /// An encoding over [`SHAPE`]: a root holding the given leaf
    /// records, which no tree could have produced.
    fn raw_summary(leaves: &[RawLeaf]) -> Vec<u8> {
        use bytes::BufMut;
        let mut buf = wire::encode(&SummaryTree::new("prop-bk", SHAPE.to_vec())).to_vec();
        let root = buf.len() - 3;
        buf.truncate(root);
        buf.put_u8(0);
        buf.put_u16(leaves.len() as u16);
        for ((a, b, c), entries, (g0, g1, g2), (flag, count, x)) in leaves {
            buf.put_u8(1);
            for l in [a, b, c] {
                buf.put_u16(*l);
            }
            buf.put_f64(entries.iter().map(|e| e.1).sum());
            buf.put_u32(entries.len() as u32);
            for &(s, w) in entries {
                buf.put_u32(s);
                buf.put_f64(w);
            }
            for g in [g0, g1, g2] {
                buf.put_f64(*g);
            }
            for slot in [Some((*flag, *count, *x)), None, Some((*flag, *count, -x))] {
                match slot {
                    Some((1, count, x)) => {
                        buf.put_u8(1);
                        for v in [count, x, x, x, x * x] {
                            buf.put_f64(v);
                        }
                    }
                    Some((flag, ..)) => buf.put_u8(flag),
                    None => buf.put_u8(0),
                }
            }
        }
        buf
    }

    #[test]
    fn encoded_pull_rejects_what_decode_rejects() {
        let mut a = acc();
        a.update_source(SourceId(1), &local_summary(71, 1, 30))
            .unwrap();
        for (what, bytes) in wire::crafted_corruptions() {
            assert!(
                matches!(
                    a.clone().update_source_encoded(SourceId(1), &bytes),
                    Err(SummaryError::Codec(_))
                ),
                "{what}"
            );
            assert_pull_matches_decode(&a, SourceId(1), &bytes);
        }
        let other_bk = wire::encode(&source_tree(1, &[((0, 0, 0), 1.0, 5.0)]));
        assert!(matches!(
            a.clone().update_source_encoded(SourceId(1), &other_bk),
            Err(SummaryError::IncompatibleBk { .. })
        ));
        assert_pull_matches_decode(&a, SourceId(1), &other_bk);
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
                a.check_invariants();
                let built = a.build_merged();
                assert_same_nodes(&built, &a.build_merged_reference());
                let mut fresh = GsAccumulator::new("prop-bk", SHAPE.to_vec());
                for (&s, t) in &live {
                    fresh.update_source(SourceId(s), t).unwrap();
                }
                fresh.check_invariants();
                prop_assert_eq!(wire::encode(&built), wire::encode(&fresh.build_merged()));
                prop_assert_eq!(a.len(), live.len());
            }
        }

        /// A pull straight from the bytes equals decode + update, on
        /// random summaries (some cells without the pulled source) and
        /// on random byte flips and truncations of their encodings.
        #[test]
        fn encoded_pull_equals_decode_then_update(
            primed in prop::collection::vec(
                (
                    0u32..4,
                    prop::collection::vec(
                        ((0u16..3, 0u16..4, 0u16..5), -0.5f64..3.0, 0.0f64..100.0),
                        0..8,
                    ),
                ),
                0..4,
            ),
            target in 0u32..4,
            cells in prop::collection::vec(
                (0u32..3, (0u16..3, 0u16..4, 0u16..5), -0.5f64..3.0, 0.0f64..100.0),
                0..10,
            ),
            flips in prop::collection::vec((any::<usize>(), 1u8..=255), 0..4),
            cut in prop::collection::vec(any::<usize>(), 0..2),
        ) {
            let mut a = GsAccumulator::new("prop-bk", SHAPE.to_vec());
            for (source, cells) in &primed {
                a.update_source(SourceId(*source), &source_tree(*source, cells)).unwrap();
            }
            // Sources target..target+2: a cell may lack the target.
            let cells: Vec<_> = cells
                .iter()
                .map(|&(ds, k, w, raw)| (target + ds, k, w, raw))
                .collect();
            let mut bytes = wire::encode(&tree_of(&cells)).to_vec();
            for &(at, x) in &flips {
                let at = at % bytes.len();
                bytes[at] ^= x;
            }
            if let Some(&c) = cut.first() {
                bytes.truncate(c % (bytes.len() + 1));
            }
            assert_pull_matches_decode(&a, SourceId(target), &bytes);
        }

        /// The same on leaf records no tree writes: repeated sources,
        /// signed-zero and NaN weights, grades of any sign, statistics slots with a zero or negative
        /// count, flags other than 0 and 1, and cells read twice.
        #[test]
        fn encoded_pull_equals_decode_on_raw_records(
            primed in prop::collection::vec(
                ((0u16..3, 0u16..4, 0u16..5), -0.5f64..3.0, 0.0f64..100.0),
                0..8,
            ),
            leaves in prop::collection::vec(
                (
                    (0u16..3, 0u16..4, 0u16..5),
                    prop::collection::vec(
                        (
                            0u32..2,
                            prop::sample::select(vec![-0.0, 0.0, -1.0, 0.25, 1.0, 2.5, f64::NAN]),
                        ),
                        0..4,
                    ),
                    (-1.0f64..1.5, -1.0f64..1.5, -1.0f64..1.5),
                    (0u8..3, -0.5f64..3.0, 0.0f64..100.0),
                ),
                0..6,
            ),
            zero_count in prop::collection::vec(any::<usize>(), 0..2),
        ) {
            let mut a = GsAccumulator::new("prop-bk", SHAPE.to_vec());
            a.update_source(SourceId(0), &source_tree(0, &primed)).unwrap();
            let mut leaves = leaves;
            if let (Some(&i), false) = (zero_count.first(), leaves.is_empty()) {
                let i = i % leaves.len();
                leaves[i].3 = (1, 0.0, leaves[i].3 .2);
            }
            assert_pull_matches_decode(&a, SourceId(0), &raw_summary(&leaves));
        }
    }
}
