//! Wire codec for summary hierarchies.
//!
//! Summaries travel the network constantly (`localsum`, `reconciliation`
//! messages), so their encoded size is the unit of the paper's storage
//! model: §6.1.1 estimates ~512 bytes per summary node and total size
//! `k·(B^{d+1}−1)/(B−1)` for a B-ary tree of depth d. This codec encodes
//! the tree structure plus leaf contents; inner aggregates (counts,
//! histograms, intents) are recomputed on decode, which both shrinks the
//! wire format and guarantees decoded trees satisfy every invariant.
//!
//! The grammar lives in two readers: `read_header` for the BK header
//! and `read_body` for the node tree, whose leaf records it checks
//! (labels in range, every length present) and hands out as borrowed
//! `LeafRecord`s. [`decode`] builds a tree from them;
//! [`crate::delta::GsAccumulator::update_source_encoded`] folds the
//! leaf records straight into its columns without building one. Both
//! go through the same readers, so they accept exactly the same inputs,
//! and neither panics on malformed bytes.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use fuzzy::descriptor::LabelId;
use relation::stats::AttributeStats;

use crate::cell::{CellKey, SourceId};
use crate::error::SummaryError;
use crate::hierarchy::{NodeId, SummaryTree};

const MAGIC: &[u8; 4] = b"SETQ";
const VERSION: u8 = 1;

/// Encodes a summary tree.
pub fn encode(tree: &SummaryTree) -> Bytes {
    let mut buf = BytesMut::with_capacity(1024);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    let name = tree.bk_name().as_bytes();
    buf.put_u16(name.len() as u16);
    buf.put_slice(name);
    buf.put_u16(tree.arity() as u16);
    for &n in tree.label_counts() {
        buf.put_u16(n as u16);
    }
    encode_node(tree, tree.root(), &mut buf);
    buf.freeze()
}

fn encode_node(tree: &SummaryTree, id: NodeId, buf: &mut BytesMut) {
    let node = tree.node(id);
    if let Some(key) = &node.cell {
        buf.put_u8(1); // leaf
        for &l in &key.0 {
            buf.put_u16(l.0);
        }
        let entry = &tree.cells()[key];
        buf.put_f64(entry.content.weight);
        buf.put_u32(entry.content.per_source.len() as u32);
        for (&s, &w) in &entry.content.per_source {
            buf.put_u32(s.0);
            buf.put_f64(w);
        }
        debug_assert_eq!(entry.content.max_grades.len(), tree.arity());
        for &g in &entry.content.max_grades {
            buf.put_f64(g);
        }
        for st in &entry.stats {
            let (c, mn, mx, mean, m2) = st.raw_parts();
            if c > 0.0 {
                buf.put_u8(1);
                buf.put_f64(c);
                buf.put_f64(mn);
                buf.put_f64(mx);
                buf.put_f64(mean);
                buf.put_f64(m2);
            } else {
                buf.put_u8(0);
            }
        }
    } else {
        buf.put_u8(0); // internal
        buf.put_u16(node.children.len() as u16);
        for &c in &node.children {
            encode_node(tree, c, buf);
        }
    }
}

/// Decodes a summary tree encoded by [`encode`].
///
/// Rejects (with [`SummaryError::Codec`], never a panic) everything the
/// shared readers `read_header` and `read_body` reject, and a cell
/// that appears in two leaves.
pub fn decode(bytes: &[u8]) -> Result<SummaryTree, SummaryError> {
    let mut buf = bytes;
    let header = read_header(&mut buf)?;
    let label_counts = header.label_counts.clone();
    let mut tree = SummaryTree::new(header.bk_name, header.label_counts);
    // The innermost open internal node: the parent of the next record.
    let mut parents = vec![tree.root()];
    let mut grades = Vec::new();
    let mut weights = Vec::new();
    read_body(&mut buf, &label_counts, |record| {
        let parent = *parents.last().expect("the root stays open");
        match record {
            Record::Open => parents.push(tree.create_internal(parent)),
            Record::Close => {
                parents.pop();
            }
            Record::Leaf(leaf) => {
                if tree.leaf_of(&leaf.key).is_some() {
                    return Err(codec("duplicate cell"));
                }
                // Every source is folded into the content in order, then
                // the path takes all their weights in one walk.
                let node = tree.create_leaf(parent, leaf.key.clone());
                let entry = tree.cell_entry_mut(&leaf.key).expect("leaf just created");
                grades.clear();
                grades.extend(leaf.grades());
                weights.clear();
                for (s, w) in leaf.entries() {
                    entry.content.add(s, w, &grades);
                    weights.push(w);
                }
                for (own, st) in entry.stats.iter_mut().zip(leaf.stats()) {
                    own.merge(&st);
                }
                tree.update_path(node, &leaf.key, &weights);
            }
        }
        Ok(())
    })?;
    Ok(tree)
}

fn codec(message: &str) -> SummaryError {
    SummaryError::Codec(message.to_string())
}

/// The header of an encoded summary: the Background Knowledge it was
/// built against.
pub(crate) struct Header {
    pub(crate) bk_name: String,
    pub(crate) label_counts: Vec<usize>,
}

/// Reads the header (magic, version, BK name, label counts) off the
/// front of `buf`.
pub(crate) fn read_header(buf: &mut &[u8]) -> Result<Header, SummaryError> {
    if buf.remaining() < 5 || &buf[..4] != MAGIC {
        return Err(codec("bad magic"));
    }
    buf.advance(4);
    if buf.get_u8() != VERSION {
        return Err(codec("unsupported version"));
    }
    if buf.remaining() < 2 {
        return Err(codec("truncated name"));
    }
    let name_len = buf.get_u16() as usize;
    if buf.remaining() < name_len {
        return Err(codec("truncated name"));
    }
    let bk_name =
        String::from_utf8(buf[..name_len].to_vec()).map_err(|_| codec("name not utf8"))?;
    buf.advance(name_len);
    if buf.remaining() < 2 {
        return Err(codec("truncated arity"));
    }
    let arity = buf.get_u16() as usize;
    let mut label_counts = Vec::with_capacity(arity);
    for _ in 0..arity {
        if buf.remaining() < 2 {
            return Err(codec("truncated label counts"));
        }
        label_counts.push(buf.get_u16() as usize);
    }
    Ok(Header {
        bk_name,
        label_counts,
    })
}

/// One record of an encoded body, in the encoder's pre-order.
pub(crate) enum Record<'a> {
    /// An internal node below the root opens; its children follow.
    Open,
    /// The innermost open internal node has all its children.
    Close,
    /// A leaf: one cell and its content.
    Leaf(LeafRecord<'a>),
}

/// A validated leaf record, borrowing its content from the input.
pub(crate) struct LeafRecord<'a> {
    /// The cell; every label is within its attribute's label count.
    pub(crate) key: CellKey,
    /// `(u32 source, f64 weight)` pairs, 12 bytes each.
    entries: &'a [u8],
    /// One `f64` per attribute.
    grades: &'a [u8],
    /// One statistics slot per attribute: a flag byte, then five `f64`
    /// when the flag is 1.
    stats: &'a [u8],
}

impl<'a> LeafRecord<'a> {
    /// The per-source weights, in encoded order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (SourceId, f64)> + 'a {
        self.entries
            .chunks_exact(12)
            .map(|mut e| (SourceId(e.get_u32()), e.get_f64()))
    }

    /// The per-attribute grades.
    pub(crate) fn grades(&self) -> impl Iterator<Item = f64> + 'a {
        self.grades.chunks_exact(8).map(|mut g| g.get_f64())
    }

    /// The per-attribute statistics; an empty slot reads as
    /// [`AttributeStats::new`].
    pub(crate) fn stats(&self) -> impl Iterator<Item = AttributeStats> + 'a {
        let mut buf = self.stats;
        std::iter::from_fn(move || {
            if !buf.has_remaining() {
                return None;
            }
            Some(if buf.get_u8() == 1 {
                let (c, mn, mx, mean, m2) = (
                    buf.get_f64(),
                    buf.get_f64(),
                    buf.get_f64(),
                    buf.get_f64(),
                    buf.get_f64(),
                );
                AttributeStats::from_raw_parts(c, mn, mx, mean, m2)
            } else {
                AttributeStats::new()
            })
        })
    }
}

/// Reads one leaf record (after its tag) off the front of `buf`.
fn read_leaf<'a>(
    buf: &mut &'a [u8],
    label_counts: &[usize],
) -> Result<LeafRecord<'a>, SummaryError> {
    let arity = label_counts.len();
    if buf.remaining() < arity * 2 {
        return Err(codec("truncated cell key"));
    }
    let mut labels = Vec::with_capacity(arity);
    for &n in label_counts {
        let label = buf.get_u16();
        if usize::from(label) >= n {
            return Err(codec("label out of range"));
        }
        labels.push(LabelId(label));
    }
    if buf.remaining() < 8 + 4 {
        return Err(codec("truncated cell content"));
    }
    let _total = buf.get_f64();
    let n_sources = buf.get_u32() as usize;
    let entries = take(buf, n_sources * 12).ok_or_else(|| codec("truncated sources"))?;
    let grades = take(buf, arity * 8).ok_or_else(|| codec("truncated grades"))?;
    let all = *buf;
    for _ in 0..arity {
        if !buf.has_remaining() {
            return Err(codec("truncated stats"));
        }
        if buf.get_u8() == 1 {
            if buf.remaining() < 40 {
                return Err(codec("truncated stats body"));
            }
            buf.advance(40);
        }
    }
    let stats = &all[..all.len() - buf.len()];
    Ok(LeafRecord {
        key: CellKey(labels),
        entries,
        grades,
        stats,
    })
}

/// Splits the first `n` bytes off `buf`, if it has them.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Some(head)
}

/// Reads the body after the header: one node tree and nothing after
/// it. Hands `visit` every record in pre-order; the root's own record
/// is not handed over, so a root leaf arrives as a lone
/// [`Record::Leaf`] and a root internal node's children as if they
/// were top level. The walk keeps its own stack, so nesting depth is
/// bounded by the input, not by the call stack.
pub(crate) fn read_body<'a>(
    buf: &mut &'a [u8],
    label_counts: &[usize],
    mut visit: impl FnMut(Record<'a>) -> Result<(), SummaryError>,
) -> Result<(), SummaryError> {
    // Children still to read, per open internal node (the root first).
    let mut open: Vec<u16> = Vec::new();
    loop {
        let is_root = open.is_empty();
        if let Some(left) = open.last_mut() {
            *left -= 1;
        }
        if !buf.has_remaining() {
            return Err(codec("truncated node"));
        }
        match buf.get_u8() {
            1 => visit(Record::Leaf(read_leaf(buf, label_counts)?))?,
            0 => {
                if buf.remaining() < 2 {
                    return Err(codec("truncated child count"));
                }
                let n = buf.get_u16();
                if !is_root {
                    visit(Record::Open)?;
                }
                open.push(n);
            }
            _ => return Err(codec("bad node tag")),
        }
        while open.last() == Some(&0) {
            open.pop();
            if !open.is_empty() {
                visit(Record::Close)?;
            }
        }
        if open.is_empty() {
            break;
        }
    }
    if buf.has_remaining() {
        return Err(codec("trailing bytes"));
    }
    Ok(())
}

/// Encoded size in bytes: `encode(tree).len()`, counted without
/// encoding.
pub fn encoded_size(tree: &SummaryTree) -> usize {
    let header = MAGIC.len() + 1 + 2 + tree.bk_name().len() + 2 + 2 * tree.arity();
    header + node_size(tree, tree.root())
}

/// Encoded size of the subtree at `id` (mirrors [`encode_node`]).
fn node_size(tree: &SummaryTree, id: NodeId) -> usize {
    let node = tree.node(id);
    match &node.cell {
        Some(key) => {
            let entry = &tree.cells()[key];
            let stats: usize = entry
                .stats
                .iter()
                .map(|st| if st.raw_parts().0 > 0.0 { 1 + 5 * 8 } else { 1 })
                .sum();
            1 + 2 * key.0.len()
                + 8
                + 4
                + 12 * entry.content.per_source.len()
                + 8 * entry.content.max_grades.len()
                + stats
        }
        None => {
            1 + 2
                + node
                    .children
                    .iter()
                    .map(|&c| node_size(tree, c))
                    .sum::<usize>()
        }
    }
}

/// Average encoded bytes per live node — comparable to the paper's
/// `k ≈ 512` bytes/summary estimate.
pub fn avg_node_bytes(tree: &SummaryTree) -> f64 {
    let nodes = tree.live_node_count().max(1);
    encoded_size(tree) as f64 / nodes as f64
}

/// Inputs only the checks added with the shared readers reject: a leaf
/// label at its attribute's label count, and a cell in two leaves. Each
/// is a one-cell summary over `[3, 4]` with its body rewritten.
#[cfg(test)]
pub(crate) fn crafted_corruptions() -> Vec<(&'static str, Vec<u8>)> {
    let mut t = SummaryTree::new("bk", vec![3, 4]);
    let key = CellKey(vec![LabelId(2), LabelId(3)]);
    let root = t.root();
    t.create_leaf(root, key.clone());
    t.add_to_cell(
        &key,
        SourceId(1),
        1.5,
        &[0.5, 1.0],
        Some(&[Some(4.0), None]),
    );
    let bytes = encode(&t);
    let h = MAGIC.len() + 1 + 2 + 2 + 2 + 2 * 2;
    // The root: an internal node with one child, the leaf record.
    assert_eq!(&bytes[h..h + 3], &[0, 0, 1]);
    let (header, leaf) = (&bytes[..h], &bytes[h + 3..]);
    let mut out_of_range = bytes.to_vec();
    out_of_range[h + 3 + 4] = 4; // the second label: 3 → 4 of 4
    let duplicate = [header, &[0, 0, 2], leaf, leaf].concat();
    vec![
        ("label out of range", out_of_range),
        ("duplicate cell", duplicate),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, SaintEtiQEngine};
    use fuzzy::bk::BackgroundKnowledge;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use relation::generator::{patient_table, MatchTarget, PatientDistributions};
    use relation::schema::Schema;
    use relation::table::Table;

    fn summary(seed: u64, n: usize) -> SummaryTree {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dist = PatientDistributions::default();
        let table = patient_table(&mut rng, n, &dist, &MatchTarget::default(), 0);
        let mut e = SaintEtiQEngine::new(
            BackgroundKnowledge::medical_cbk(),
            &Schema::patient(),
            EngineConfig::default(),
            crate::cell::SourceId(7),
        )
        .unwrap();
        e.summarize_table(&table);
        e.into_tree()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = summary(1, 150);
        let bytes = encode(&t);
        assert_eq!(encoded_size(&t), bytes.len(), "statistics are sized too");
        let d = decode(&bytes).unwrap();
        d.check_invariants();
        assert_eq!(d.bk_name(), t.bk_name());
        assert_eq!(d.label_counts(), t.label_counts());
        assert_eq!(d.leaf_count(), t.leaf_count());
        assert!((d.total_count() - t.total_count()).abs() < 1e-9);
        assert_eq!(
            d.live_node_count(),
            t.live_node_count(),
            "structure preserved"
        );
        assert_eq!(d.depth(), t.depth());
        for (k, entry) in t.cells() {
            let de = &d.cells()[k];
            assert!((de.content.weight - entry.content.weight).abs() < 1e-12);
            assert_eq!(de.content.per_source, entry.content.per_source);
            assert_eq!(de.content.max_grades, entry.content.max_grades);
            for (a, b) in de.stats.iter().zip(&entry.stats) {
                assert_eq!(a.raw_parts(), b.raw_parts());
            }
        }
        // Root intents agree.
        assert_eq!(d.node(d.root()).intent, t.node(t.root()).intent);
    }

    #[test]
    fn empty_tree_roundtrip() {
        let t = SummaryTree::new("bk", vec![3, 4]);
        let d = decode(&encode(&t)).unwrap();
        assert_eq!(d.leaf_count(), 0);
        assert_eq!(d.total_count(), 0.0);
    }

    #[test]
    fn tiny_tree_roundtrip() {
        let mut e = SaintEtiQEngine::new(
            BackgroundKnowledge::medical_cbk(),
            &Schema::patient(),
            EngineConfig::default(),
            crate::cell::SourceId(1),
        )
        .unwrap();
        e.summarize_table(&Table::patient_table1());
        let t = e.into_tree();
        let d = decode(&encode(&t)).unwrap();
        d.check_invariants();
        assert_eq!(d.leaf_count(), 3);
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        let t = summary(2, 50);
        let bytes = encode(&t);
        // Truncations at every prefix length must fail cleanly.
        for cut in [0, 3, 4, 5, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut {cut} accepted");
        }
        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(decode(&bad).is_err());
        // Bad version.
        let mut bad = bytes.to_vec();
        bad[4] = 99;
        assert!(decode(&bad).is_err());
        // Trailing garbage.
        let mut bad = bytes.to_vec();
        bad.push(0);
        assert!(decode(&bad).is_err());
        // A label past its attribute's vocabulary; a cell in two leaves.
        for (what, bad) in crafted_corruptions() {
            assert!(
                matches!(decode(&bad), Err(SummaryError::Codec(_))),
                "{what}"
            );
        }
        // Deep nesting is walked without recursion: 20 000 internal
        // nodes, each the only child of the last.
        let mut deep = bytes[..bytes.len() - encoded_body_len(&t)].to_vec();
        for _ in 0..20_000 {
            deep.extend_from_slice(&[0, 0, 1]);
        }
        assert!(decode(&deep).is_err());
    }

    /// Bytes of `t`'s encoding after its header.
    fn encoded_body_len(t: &SummaryTree) -> usize {
        node_size(t, t.root())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever bytes arrive, decoding returns; on success the tree
        /// can be sized for re-encoding.
        #[test]
        fn decode_never_panics_on_mutated_bytes(
            seed in 0u64..8,
            flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..6),
            cut in prop::collection::vec(any::<usize>(), 0..2),
        ) {
            let mut bytes = encode(&summary(100 + seed, 12)).to_vec();
            for &(at, x) in &flips {
                let at = at % bytes.len();
                bytes[at] ^= x;
            }
            if let Some(&c) = cut.first() {
                bytes.truncate(c % (bytes.len() + 1));
            }
            if let Ok(t) = decode(&bytes) {
                encoded_size(&t);
            }
        }
    }

    #[test]
    fn node_size_is_in_the_papers_ballpark() {
        // §6.1.1 estimates ~512 B per summary; our leaner codec must stay
        // within the same order of magnitude (and below it).
        let t = summary(3, 500);
        let per_node = avg_node_bytes(&t);
        assert!(per_node > 16.0, "suspiciously small: {per_node}");
        assert!(per_node < 1024.0, "node encoding exploded: {per_node}");
    }

    #[test]
    fn size_grows_with_content_but_sublinearly() {
        let small = encoded_size(&summary(4, 50));
        let large = encoded_size(&summary(5, 2000));
        assert!(large > small);
        // 40x the tuples must NOT give 40x the bytes: cells saturate.
        assert!(
            (large as f64) < (small as f64) * 10.0,
            "small={small} large={large}"
        );
    }
}
