//! Shape tests for the figure drivers: at reduced scale, every trend the
//! paper reports must already be visible. At paper scale the same
//! claims are read off the `sumq-bench` figure binaries' output.

use p2psim::time::SimTime;
use summary_p2p::config::SimConfig;
use summary_p2p::costmodel;
use summary_p2p::scenario::{figure4, figure5, figure6, figure7};

fn base(seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_defaults(0, 0.3);
    c.horizon = SimTime::from_hours(5);
    c.query_count = 30;
    c.records_per_peer = 10;
    c.seed = seed;
    c
}

#[test]
fn figure4_stale_fraction_grows_with_alpha() {
    let rows = figure4(&[40], &[0.1, 0.4, 0.8], &base(1)).unwrap();
    assert_eq!(rows.len(), 3);
    let (tight, lax) = (
        rows[0].worst_stale_fraction(),
        rows[2].worst_stale_fraction(),
    );
    assert!(
        tight < lax,
        "alpha 0.1 ({tight}) must stay below alpha 0.8 ({lax})"
    );
}

#[test]
fn figure4_stale_fraction_bounded_by_alpha_neighborhood() {
    // The trigger fires at alpha, so the time-averaged staleness a query
    // sees stays in the alpha neighborhood — the basis of the paper's
    // "limited to 11% at alpha=0.3" reading.
    let rows = figure4(&[60], &[0.3], &base(2)).unwrap();
    let s = rows[0].worst_stale_fraction();
    assert!(
        s < 0.3 + 0.15,
        "stale fraction {s} wildly exceeds the alpha band"
    );
}

#[test]
fn figure5_sits_below_figure4() {
    let b = base(3);
    let worst = figure4(&[50], &[0.3], &b).unwrap()[0].worst_stale_fraction();
    let real = figure5(&[50], &b).unwrap()[0].real_fn_fraction();
    assert!(
        real < worst,
        "real FN fraction {real} must sit below the worst case {worst}"
    );
    // The paper reports a 4.5x reduction; at small scale we only require
    // a clear gap.
    assert!(
        real <= worst * 0.8,
        "expected a clear reduction: {real} vs {worst}"
    );
}

#[test]
fn figure6_per_node_rate_is_flat_across_sizes() {
    let rows = figure6(&[20, 40, 80], &[0.3], &base(4)).unwrap();
    let rates: Vec<f64> = rows
        .iter()
        .map(|r| r.update_messages_per_node_s())
        .collect();
    let max = rates.iter().fold(0.0f64, |a, &b| a.max(b));
    let min = rates.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    assert!(
        max / min.max(1e-12) < 6.0,
        "per-node update rate should be roughly flat: {rates:?}"
    );
    // Totals must grow.
    assert!(rows[2].update_messages() > rows[0].update_messages());
}

#[test]
fn figure6_alpha_tightening_costs_little() {
    let rows = figure6(&[60], &[0.3, 0.8], &base(5)).unwrap();
    let tight = rows.iter().find(|r| r.alpha == 0.3).unwrap();
    let lax = rows.iter().find(|r| r.alpha == 0.8).unwrap();
    let ratio = tight.update_messages() as f64 / lax.update_messages().max(1) as f64;
    // Paper: ~1.2x. Allow a wide band at small scale, but the order of
    // magnitude must hold (not 10x).
    assert!((1.0..=4.0).contains(&ratio), "cost ratio {ratio}");
}

#[test]
fn figure7_ordering_and_growth() {
    let rows = figure7(&[100, 500, 1500], 0.11, &base(6), 15);
    for r in &rows {
        assert!(r.centralized <= r.summary_querying, "{r:?}");
        assert!(r.summary_querying < r.flooding, "{r:?}");
        assert!(r.flooding_recall <= 1.0);
    }
    // Costs grow with n for every algorithm.
    assert!(rows[2].centralized > rows[0].centralized);
    assert!(rows[2].summary_querying > rows[0].summary_querying);
    assert!(rows[2].flooding > rows[0].flooding);
}

#[test]
fn figure7_flooding_recall_degrades_with_scale() {
    let rows = figure7(&[100, 2000], 0.11, &base(7), 15);
    assert!(
        rows[1].flooding_recall < rows[0].flooding_recall,
        "TTL-3 flooding covers less of a bigger network: {} vs {}",
        rows[1].flooding_recall,
        rows[0].flooding_recall
    );
}

#[test]
fn cost_model_matches_paper_arithmetic() {
    // §6.2.3's worked numbers: CQ = 10·Cd + 9·Cf with |P_Q| = 0.01·n.
    let n = 2000;
    let fp = 0.11;
    let pq = 0.01 * n as f64; // 20
    let cd = costmodel::domain_query_cost(pq, fp);
    let cf = costmodel::interdomain_flood_cost(pq, fp, 3.5, 1);
    let cq = costmodel::figure7_sq_cost(n, fp, 3.5);
    assert!((cq - (10.0 * cd + 9.0 * cf)).abs() < 1e-9);
    // Centralized at n=2000: 1 + 2·200 = 401.
    assert_eq!(costmodel::centralized_cost(n, 0.1), 401.0);
}
