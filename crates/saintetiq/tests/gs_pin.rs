//! Pins global-summary construction: the exact bytes and cached
//! aggregates of [`GsAccumulator::build_merged`] and of decoded
//! summaries, for fixed-seed inputs.
//!
//! The domain layer's oracle (`full_rebuild_oracle`) and the
//! incrementally maintained GS both go through `build_merged`, so a
//! change to the construction itself cannot be caught by comparing the
//! two. This test compares against checked-in digests instead. Each
//! case records two 64-bit FNV-1a digests:
//!
//! * `wire` — of `wire::encode(tree)`: structure, cell contents,
//!   per-source weights, grades and statistics;
//! * `nodes` — of every live node's `count`, histogram and intent bits
//!   in depth-first order. The wire format omits these, but Cobweb's
//!   scoring and query localization read them, so they are pinned too.
//!
//! Any refactor of the merge, the path updates or the decoder must leave
//! the table unchanged. To print the current table, run
//!
//! ```text
//! GS_PIN_PRINT=1 cargo test -p saintetiq --test gs_pin -- --nocapture
//! ```

use fuzzy::bk::BackgroundKnowledge;
use rand::SeedableRng;
use relation::generator::{patient_table, MatchTarget, PatientDistributions};
use relation::schema::Schema;
use saintetiq::cell::SourceId;
use saintetiq::delta::GsAccumulator;
use saintetiq::engine::{EngineConfig, SaintEtiQEngine};
use saintetiq::hierarchy::SummaryTree;
use saintetiq::wire;

/// Records per member database (the simulator's default).
const RECORDS: usize = 24;

/// `(case, wire digest, nodes digest)`.
const EXPECTED: &[(&str, u64, u64)] = &[
    ("local-0", 0x6469e779bd07a3ce, 0x09d3fd09424e8c58),
    ("local-0-decoded", 0x6469e779bd07a3ce, 0x00a404d08059b330),
    ("local-1", 0x5b65edc82720e913, 0x587b5156231d3d30),
    ("local-1-decoded", 0x5b65edc82720e913, 0xa8a8349216322d14),
    ("local-7", 0xf1c2b74f987cce09, 0x27a707937c559b5a),
    ("local-7-decoded", 0xf1c2b74f987cce09, 0x43e9746261643fe1),
    ("merged-1", 0xfc3dd3b02ed425be, 0xd258217eed1bd64a),
    ("merged-1-decoded", 0xfc3dd3b02ed425be, 0x6e3d137866fb1b58),
    ("merged-50", 0xabf15b700bb8d0b3, 0xfd963d15a0866e3d),
    ("merged-50-decoded", 0xabf15b700bb8d0b3, 0xc022fa0a13d4af90),
    ("merged-1000", 0x1ba9726087b4dfc9, 0x11dacbe5e5fd2c34),
    (
        "merged-1000-decoded",
        0x1ba9726087b4dfc9,
        0x004dea26ad259d8f,
    ),
    ("script-1-drift", 0xfc0fa80d392cf531, 0xd44bb5703a49a33c),
    ("script-2-remove", 0xbaf15a96269560b0, 0x52cc38a22f3b8d1e),
    (
        "script-3-encoded-and-join",
        0xf92e403b0ba096c4,
        0xef390e4c91dccf9b,
    ),
    ("script-4-clear", 0xe8415abe6779addc, 0xe712000d439bb485),
    ("script-5-reenrol", 0x38477b87afc79150, 0xe29c54c5e14a748d),
];

/// 64-bit FNV-1a, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Digest of the wire encoding.
fn wire_digest(tree: &SummaryTree) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&wire::encode(tree));
    h.0
}

/// Digest of every live node's cached aggregates, depth first in child
/// order.
fn nodes_digest(tree: &SummaryTree) -> u64 {
    let mut h = Fnv::new();
    let mut stack = vec![tree.root()];
    while let Some(id) = stack.pop() {
        let node = tree.node(id);
        h.u64(node.children.len() as u64);
        if let Some(key) = &node.cell {
            for l in &key.0 {
                h.u64(u64::from(l.0));
            }
        }
        h.f64(node.count);
        for slot in node.hist.iter().flatten() {
            h.f64(*slot);
        }
        for set in &node.intent.sets {
            h.bytes(&set.0.to_le_bytes());
        }
        stack.extend(node.children.iter().rev());
    }
    h.0
}

/// A member's local summary over a fixed-seed database.
fn local_summary(seed: u64, member: u32) -> SummaryTree {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dist = PatientDistributions::default();
    let table = patient_table(&mut rng, RECORDS, &dist, &MatchTarget::default(), 0);
    let mut engine = SaintEtiQEngine::new(
        BackgroundKnowledge::medical_cbk(),
        &Schema::patient(),
        EngineConfig::default(),
        SourceId(member),
    )
    .expect("the patient schema binds to the medical CBK");
    engine.summarize_table(&table);
    engine.into_tree()
}

fn accumulator() -> GsAccumulator {
    GsAccumulator::new("medical-cbk-v1", vec![3, 3, 3, 12])
}

/// An accumulator holding members `0..n`, member `m` on seed
/// `1000 + m`.
fn enrolled(n: u32) -> GsAccumulator {
    let mut acc = accumulator();
    for m in 0..n {
        acc.update_source(SourceId(m), &local_summary(1000 + u64::from(m), m))
            .unwrap();
    }
    acc
}

/// Every case of the table, in order.
fn cases() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    let mut record = |name: &str, tree: &SummaryTree| {
        out.push((name.to_string(), wire_digest(tree), nodes_digest(tree)));
    };

    // Local summaries, as built and as decoded (one source per leaf).
    for m in [0u32, 1, 7] {
        let local = local_summary(1000 + u64::from(m), m);
        record(&format!("local-{m}"), &local);
        let decoded = wire::decode(&wire::encode(&local)).unwrap();
        record(&format!("local-{m}-decoded"), &decoded);
    }

    for n in [1u32, 50, 1000] {
        let gs = enrolled(n).build_merged();
        record(&format!("merged-{n}"), &gs);
        // The decoder folds every source of a multi-source leaf.
        let decoded = wire::decode(&wire::encode(&gs)).unwrap();
        record(&format!("merged-{n}-decoded"), &decoded);
    }

    // A scripted history on 50 members: drifted re-pulls, encoded
    // pulls, removals, a clear and a re-enrolment.
    let mut acc = enrolled(50);
    acc.update_source(SourceId(3), &local_summary(7003, 3))
        .unwrap();
    acc.update_source(SourceId(17), &local_summary(7017, 17))
        .unwrap();
    record("script-1-drift", &acc.build_merged());
    acc.remove_source(SourceId(5));
    acc.remove_source(SourceId(40));
    acc.remove_source(SourceId(99));
    record("script-2-remove", &acc.build_merged());
    let bytes = wire::encode(&local_summary(7008, 8));
    acc.update_source_encoded(SourceId(8), &bytes).unwrap();
    acc.update_source(SourceId(60), &local_summary(7060, 60))
        .unwrap();
    record("script-3-encoded-and-join", &acc.build_merged());
    acc.clear();
    record("script-4-clear", &acc.build_merged());
    for m in [9u32, 2, 30] {
        acc.update_source(SourceId(m), &local_summary(8000 + u64::from(m), m))
            .unwrap();
    }
    record("script-5-reenrol", &acc.build_merged());
    out
}

#[test]
fn global_summary_construction_is_pinned() {
    let got = cases();
    if std::env::var_os("GS_PIN_PRINT").is_some() {
        for (name, w, n) in &got {
            println!("    (\"{name}\", 0x{w:016x}, 0x{n:016x}),");
        }
    }
    let mut mismatches = Vec::new();
    for (name, w, n) in &got {
        match EXPECTED.iter().find(|(e, _, _)| e == name) {
            Some((_, ew, en)) if ew == w && en == n => {}
            Some((_, ew, en)) => mismatches.push(format!(
                "{name}: wire 0x{w:016x} (expected 0x{ew:016x}), \
                 nodes 0x{n:016x} (expected 0x{en:016x})"
            )),
            None => mismatches.push(format!("{name}: not in the expected table")),
        }
    }
    assert_eq!(
        EXPECTED.len(),
        got.len(),
        "the expected table lists other cases"
    );
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
