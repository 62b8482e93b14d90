//! Experiment drivers: one function per figure of §6.2 plus the unified
//! kernel's dynamic network-scale experiments (inter-domain lookups
//! routed while churn, drift and reconciliation run). Every simulation
//! driver returns the kernel reports it ran — [`DomainReport`] for
//! Figures 4–6, [`MultiDomainReport`] for the dynamic runs — one per
//! swept value, in input order; the caller keeps the swept values.
//! Figure 7 and the reconciliation cost sweep return their own points,
//! because they measure values no report holds. The `sumq-bench`
//! binaries call these at paper scale; integration tests call them at
//! reduced scale.

use std::time::Instant;

use fuzzy::bk::BackgroundKnowledge;
use p2psim::churn::LifetimeDistribution;
use p2psim::network::{MessageClass, Network, NodeId};
use p2psim::time::SimTime;
use p2psim::topology::{Graph, TopologyConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saintetiq::wire;

use crate::baselines;
use crate::config::{DeliveryMode, LatencyConfig, SimConfig};
use crate::control::ControlPolicy;
use crate::costmodel;
use crate::domain::DomainSim;
use crate::error::P2pError;
use crate::freshness::Freshness;
use crate::kernel::{LookupTarget, MultiDomainSim};
use crate::metrics::{DomainReport, MultiDomainReport};
use crate::peerstate::{DomainCore, MessageLedger, PeerState};
use crate::routing::RoutingPolicy;
use crate::workload::{generate_peer_data, make_templates};

/// Runs one single-domain simulation per `(α, n)` of the grid, α-major,
/// after `tweak` sets the figure's own knobs.
fn domain_grid(
    sizes: &[usize],
    alphas: &[f64],
    base: &SimConfig,
    tweak: impl Fn(&mut SimConfig),
) -> Result<Vec<DomainReport>, P2pError> {
    let mut out = Vec::with_capacity(sizes.len() * alphas.len());
    for &alpha in alphas {
        for &n in sizes {
            let mut cfg = *base;
            cfg.n_peers = n;
            cfg.alpha = alpha;
            tweak(&mut cfg);
            out.push(DomainSim::new(cfg)?.run());
        }
    }
    Ok(out)
}

/// Figure 4: stale answers (worst case,
/// [`DomainReport::worst_stale_fraction`]) vs domain size, per α. One
/// report per `(α, n)`, α-major.
pub fn figure4(
    sizes: &[usize],
    alphas: &[f64],
    base: &SimConfig,
) -> Result<Vec<DomainReport>, P2pError> {
    domain_grid(sizes, alphas, base, |cfg| cfg.policy = RoutingPolicy::All)
}

/// Figure 5: real false negatives ([`DomainReport::real_fn_fraction`])
/// vs domain size under the fresh-only policy (the paper's "real case",
/// accounting for whether the database modification actually affects
/// the query). One report per size, at `base.alpha`.
pub fn figure5(sizes: &[usize], base: &SimConfig) -> Result<Vec<DomainReport>, P2pError> {
    domain_grid(sizes, &[base.alpha], base, |cfg| {
        cfg.policy = RoutingPolicy::FreshOnly
    })
}

/// Figure 6: update cost ([`DomainReport::update_messages`], its
/// token-counted and per-node-second forms) vs domain size for the given
/// α values. One report per `(α, n)`, α-major. Update cost is
/// query-independent, so each run poses a single query.
pub fn figure6(
    sizes: &[usize],
    alphas: &[f64],
    base: &SimConfig,
) -> Result<Vec<DomainReport>, P2pError> {
    domain_grid(sizes, alphas, base, |cfg| cfg.query_count = 1)
}

/// One point of Figure 7.
#[derive(Debug, Clone)]
pub struct QueryCostPoint {
    /// Network size.
    pub n: usize,
    /// Centralized-index cost (closed form, §6.2.3).
    pub centralized: f64,
    /// Summary-querying cost `C_Q = 10·C_d + 9·C_f` (§6.2.3, with the
    /// worst-case FP of Figure 4 at α = 0.3).
    pub summary_querying: f64,
    /// Pure-flooding cost normalized to full recall: raw messages divided
    /// by measured recall. A TTL-3 flood on a degree-4 power-law graph
    /// reaches only part of a large network, so its raw message count
    /// understates what it costs flooding to deliver the result set the
    /// other algorithms deliver; this is the comparable series.
    pub flooding: f64,
    /// Raw measured flooding messages (TTL 3, duplicates included).
    pub flooding_raw: f64,
    /// Measured flooding recall (how much of the 10 % it actually finds).
    pub flooding_recall: f64,
}

/// Figure 7: query cost vs number of peers for the three algorithms.
///
/// `fp` is the stale-answer fraction injected into the SQ cost model —
/// the paper uses Figure 4's worst case at α = 0.3 (≈ 0.11).
pub fn figure7(
    sizes: &[usize],
    fp: f64,
    base: &SimConfig,
    flood_samples: usize,
) -> Vec<QueryCostPoint> {
    let mut out = Vec::new();
    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(base.seed ^ (n as u64).wrapping_mul(0x9E3779B9));
        let topo = TopologyConfig {
            nodes: n,
            m: base.topology_m,
            ..Default::default()
        };
        let net = Network::new(Graph::barabasi_albert(&topo, &mut rng));

        // Ground truth: exactly ⌈10 %⌉ of peers match.
        let hits = ((base.match_fraction * n as f64).round() as usize).max(1);
        let mut matching = vec![false; n];
        let mut chosen = 0usize;
        while chosen < hits {
            let i = rng.gen_range(0..n);
            if !matching[i] {
                matching[i] = true;
                chosen += 1;
            }
        }
        let matching = std::sync::Arc::new(matching);
        let m2 = matching.clone();
        let (flood_msgs, flood_recall) = baselines::flood_query_averaged(
            &net,
            base.flood_ttl,
            flood_samples,
            &mut rng,
            move |p| m2[p.index()],
        );

        out.push(QueryCostPoint {
            n,
            centralized: costmodel::centralized_cost(n, base.match_fraction),
            summary_querying: costmodel::figure7_sq_cost(n, fp, base.interdomain_k),
            flooding: flood_msgs / flood_recall.max(0.01),
            flooding_raw: flood_msgs,
            flooding_recall: flood_recall,
        });
    }
    out
}

/// Runs one dynamic multi-domain simulation per configuration, in
/// order.
fn run_dynamic(
    cfgs: impl IntoIterator<Item = SimConfig>,
    domain_target: usize,
    target: LookupTarget,
) -> Result<Vec<MultiDomainReport>, P2pError> {
    cfgs.into_iter()
        .map(|cfg| Ok(MultiDomainSim::new(cfg, domain_target, target)?.run()))
        .collect()
}

/// Scales every churn clock of `cfg` by `scale`: session lifetimes,
/// summary lifetimes (the same Table 3 `L`) and downtimes all shrink by
/// the factor, so turnover and drift accelerate while the steady-state
/// live fraction stays put.
pub fn scale_churn(cfg: &SimConfig, scale: f64) -> SimConfig {
    assert!(scale > 0.0, "churn scale must be positive");
    let mut out = *cfg;
    out.lifetime = match cfg.lifetime {
        LifetimeDistribution::LogNormalMeanMedian { mean_s, median_s } => {
            LifetimeDistribution::LogNormalMeanMedian {
                mean_s: mean_s / scale,
                median_s: median_s / scale,
            }
        }
        LifetimeDistribution::Exponential { mean_s } => LifetimeDistribution::Exponential {
            mean_s: mean_s / scale,
        },
        LifetimeDistribution::Weibull { shape, scale_s } => LifetimeDistribution::Weibull {
            shape,
            scale_s: scale_s / scale,
        },
    };
    out.mean_downtime_s = cfg.mean_downtime_s / scale;
    out
}

/// The unified-kernel experiment the static system could not express:
/// inter-domain lookups sampled across the horizon *while* churn, drift
/// and α-gated reconciliation mutate every domain's GS/CL. One report
/// per churn scale ([`scale_churn`]); recall degrades as the scale grows
/// and recovers with reconciliation (lower α ⇒ higher recall at equal
/// churn).
pub fn figure_multidomain_churn(
    churn_scales: &[f64],
    base: &SimConfig,
    domain_target: usize,
    target: LookupTarget,
) -> Result<Vec<MultiDomainReport>, P2pError> {
    run_dynamic(
        churn_scales.iter().map(|&scale| scale_churn(base, scale)),
        domain_target,
        target,
    )
}

/// Enables the message plane on a configuration with the given default
/// hop latency (other latency knobs at their WAN defaults).
pub fn with_latency(cfg: &SimConfig, hop: SimTime) -> SimConfig {
    let mut out = *cfg;
    out.delivery = DeliveryMode::Latency(LatencyConfig {
        default_hop: hop,
        ..LatencyConfig::wan_default()
    });
    out
}

/// The message-plane experiment: the same dynamic multi-domain run at
/// increasing hop latencies, one report per hop setting. Time-to-answer
/// grows with the hop latency; recall degrades once rings and lookups
/// are slow enough that answers arrive about peers that already churned
/// away.
pub fn figure_latency_sweep(
    hop_ms: &[u64],
    base: &SimConfig,
    domain_target: usize,
    target: LookupTarget,
) -> Result<Vec<MultiDomainReport>, P2pError> {
    run_dynamic(
        hop_ms
            .iter()
            .map(|&ms| with_latency(base, SimTime::from_millis(ms))),
        domain_target,
        target,
    )
}

/// Gives the configuration a heterogeneous per-domain drift profile:
/// domains drift at log-spaced rates in `[1/spread, spread]` — the
/// scenario axis on which a single global α cannot sit right for every
/// domain, so per-domain adaptation has something to find.
pub fn with_heterogeneous_drift(cfg: &SimConfig, spread: f64) -> SimConfig {
    let mut out = *cfg;
    out.drift_spread = spread;
    out
}

/// The staleness/bandwidth frontier: the same heterogeneous-drift
/// dynamic multi-domain run once per fixed α, then once under
/// [`ControlPolicy::Adaptive`] — one report per fixed α, the adaptive
/// report last. Fixed rows trace the frontier a single global threshold
/// can reach; the adaptive row shows where per-domain feedback control
/// lands — holding the network-wide stale-answer fraction near the
/// policy's target while spending no more pull bandwidth than the
/// cheapest fixed α of comparable staleness (`BENCH_alpha.json` reports
/// the comparison).
pub fn figure_alpha_adaptive(
    fixed_alphas: &[f64],
    adaptive: ControlPolicy,
    base: &SimConfig,
    domain_target: usize,
    target: LookupTarget,
) -> Result<Vec<MultiDomainReport>, P2pError> {
    let fixed = fixed_alphas.iter().map(|&alpha| SimConfig {
        alpha,
        control: None,
        ..*base
    });
    let adaptive = SimConfig {
        control: Some(adaptive),
        ..*base
    };
    run_dynamic(
        fixed.chain(std::iter::once(adaptive)),
        domain_target,
        target,
    )
}

/// Enables summary-peer churn on a configuration: every SP's session
/// ends after an exponential lifetime of the given mean, triggering
/// §4.3 dissolution (and, with [`SimConfig::rebirth`], re-election).
pub fn with_sp_churn(cfg: &SimConfig, mean_lifetime_s: f64) -> SimConfig {
    let mut out = *cfg;
    out.sp_lifetime = Some(LifetimeDistribution::Exponential {
        mean_s: mean_lifetime_s,
    });
    out
}

/// The SP-rebirth experiment: the same long-horizon SP-churn run twice
/// — rebirth off, then on, one report each. Without rebirth every
/// departure is terminal and the live-domain count decays monotonically
/// toward zero; with it each dissolved domain re-elects a replacement SP
/// from its own live hubs (latency-aware on the message plane) and the
/// count stays near its initial value — the stationarity
/// `BENCH_rebirth.json` checks
/// ([`MultiDomainReport::mean_live_domains`] within ±10% of the initial
/// count).
pub fn figure_rebirth(
    base: &SimConfig,
    sp_mean_lifetime_s: f64,
    domain_target: usize,
    target: LookupTarget,
) -> Result<Vec<MultiDomainReport>, P2pError> {
    let churned = with_sp_churn(base, sp_mean_lifetime_s);
    run_dynamic(
        [false, true].map(|rebirth| SimConfig { rebirth, ..churned }),
        domain_target,
        target,
    )
}

/// One point of the full-vs-incremental reconciliation cost sweep
/// ([`reconcile_cost_sweep`]): a single α-gated pull over a domain of
/// `n` members of which `stale_members` drifted, measured both ways.
#[derive(Debug, Clone)]
pub struct ReconcilePoint {
    /// Domain size.
    pub n: usize,
    /// Fraction of members drifted before the round.
    pub drift_fraction: f64,
    /// Members actually flagged stale (⌈fraction·n⌉, at least 1).
    pub stale_members: usize,
    /// Member summaries the incremental round decoded + folded.
    pub incr_merged: u64,
    /// Live members the incremental round skipped.
    pub incr_skipped: u64,
    /// Delta payload bytes the incremental round pulled.
    pub incr_delta_bytes: u64,
    /// Token hops of the incremental round (stale members + store).
    pub incr_token_hops: u64,
    /// Wall-clock microseconds of the incremental round.
    pub incr_micros: u64,
    /// Member summaries a from-scratch rebuild decodes + folds (every
    /// live member).
    pub full_merged: u64,
    /// Wall-clock microseconds of the from-scratch oracle rebuild.
    pub full_micros: u64,
    /// Encoded GS size after the round.
    pub gs_bytes: usize,
    /// Whether the incremental GS matched the oracle byte-for-byte.
    pub equivalent: bool,
}

/// Measures one reconciliation round full-scratch vs incrementally, per
/// domain size and drift fraction: builds a domain, enrolls everyone,
/// drifts `fraction` of the members (regenerated data + stale flag),
/// then runs the incremental pull and times the from-scratch oracle on
/// the same state. The `BENCH_reconcile.json` emitted by
/// `multidomain_churn --reconcile` is this sweep; its headline claim —
/// per-round merge work scales with the stale subset, not membership —
/// is the `incr_merged == stale_members ≪ full_merged` column pair.
pub fn reconcile_cost_sweep(
    sizes: &[usize],
    drift_fractions: &[f64],
    base: &SimConfig,
) -> Result<Vec<ReconcilePoint>, P2pError> {
    let bk = BackgroundKnowledge::medical_cbk();
    let templates = make_templates(base.template_count);
    let mut out = Vec::new();
    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(base.seed ^ (n as u64).wrapping_mul(0xA24B_AED4));
        let mut peers: Vec<Option<PeerState>> = Vec::with_capacity(n);
        for p in 0..n {
            peers.push(Some(PeerState::new(generate_peer_data(
                &mut rng,
                p as u32,
                &bk,
                &templates,
                base.match_fraction,
                base.records_per_peer,
            )?)));
        }
        let mut core = DomainCore::new(None, (0..n as u32).map(NodeId).collect());
        core.enroll_all(&mut peers, &mut MessageLedger::new())?;

        for &fraction in drift_fractions {
            let stale = ((fraction * n as f64).ceil() as usize).clamp(1, n);
            let mut core_i = core.clone();
            let mut peers_i = peers.clone();
            // Spread the drifted members across the id space.
            for k in 0..stale {
                let p = (k * n / stale) as u32;
                let data = generate_peer_data(
                    &mut rng,
                    p,
                    &bk,
                    &templates,
                    base.match_fraction,
                    base.records_per_peer,
                )?;
                peers_i[p as usize].as_mut().expect("generated above").data = data;
                core_i.cl.set_freshness(NodeId(p), Freshness::NeedsRefresh);
            }

            let mut ledger = MessageLedger::new();
            let t0 = Instant::now();
            let work = core_i.reconcile(&mut peers_i, &mut ledger)?;
            let incr_micros = t0.elapsed().as_micros() as u64;

            let t1 = Instant::now();
            let oracle = core_i.full_rebuild_oracle(&peers_i)?;
            let full_micros = t1.elapsed().as_micros() as u64;

            out.push(ReconcilePoint {
                n,
                drift_fraction: fraction,
                stale_members: stale,
                incr_merged: work.merged,
                incr_skipped: work.skipped,
                incr_delta_bytes: work.delta_bytes,
                incr_token_hops: ledger.sent(MessageClass::Reconciliation),
                incr_micros,
                full_merged: peers_i.iter().flatten().filter(|s| s.up).count() as u64,
                full_micros,
                gs_bytes: core_i.gs_bytes_last,
                equivalent: wire::encode(&core_i.gs) == wire::encode(&oracle),
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_base() -> SimConfig {
        let mut c = SimConfig::paper_defaults(32, 0.3);
        c.horizon = SimTime::from_hours(4);
        c.query_count = 24;
        c.records_per_peer = 10;
        c
    }

    #[test]
    fn figure4_rows_cover_the_grid() {
        let rows = figure4(&[16, 32], &[0.3, 0.8], &quick_base()).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.worst_stale_fraction()), "{r:?}");
        }
        // Higher α tolerates more staleness (on average across sizes).
        let avg = |a: f64| {
            rows.iter()
                .filter(|r| r.alpha == a)
                .map(|r| r.worst_stale_fraction())
                .sum::<f64>()
                / 2.0
        };
        assert!(
            avg(0.8) + 1e-9 >= avg(0.3),
            "0.8: {} vs 0.3: {}",
            avg(0.8),
            avg(0.3)
        );
    }

    #[test]
    fn figure5_real_fn_below_worst_case() {
        let base = quick_base();
        let f4 = figure4(&[32], &[0.3], &base).unwrap();
        let f5 = figure5(&[32], &base).unwrap();
        // The paper: real stale effects are several times below the worst
        // case (their factor: 4.5).
        let (real, worst) = (f5[0].real_fn_fraction(), f4[0].worst_stale_fraction());
        assert!(real <= worst, "real {real} must not exceed worst {worst}");
    }

    #[test]
    fn figure6_total_grows_with_n_but_per_node_flat() {
        let rows = figure6(&[16, 64], &[0.3], &quick_base()).unwrap();
        assert!(rows[1].update_messages() > rows[0].update_messages());
        // Per-node rate stays the same order of magnitude ("the number of
        // messages per node remains almost the same").
        let ratio =
            rows[1].update_messages_per_node_s() / rows[0].update_messages_per_node_s().max(1e-12);
        assert!((0.2..=5.0).contains(&ratio), "per-node ratio {ratio}");
    }

    #[test]
    fn figure7_ordering_matches_paper() {
        let rows = figure7(&[200, 1000], 0.11, &quick_base(), 10);
        for r in &rows {
            assert!(
                r.centralized < r.summary_querying,
                "centralized is the lower bound: {r:?}"
            );
            assert!(
                r.summary_querying < r.flooding,
                "SQ must beat flooding: {r:?}"
            );
        }
        // The SQ advantage grows with network size.
        let gain = |r: &QueryCostPoint| r.flooding / r.summary_querying;
        assert!(gain(&rows[1]) > gain(&rows[0]) * 0.8);
    }

    #[test]
    fn multidomain_churn_rows_cover_scales() {
        let mut base = quick_base();
        base.n_peers = 120;
        let rows = figure_multidomain_churn(&[0.5, 2.0], &base, 20, LookupTarget::Total).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.queries > 0);
            assert!((0.0..=1.0 + 1e-12).contains(&r.mean_recall), "{r:?}");
        }
    }

    #[test]
    fn alpha_adaptive_rows_cover_fixed_and_adaptive() {
        let mut base = quick_base();
        base.n_peers = 120;
        base.query_count = 40;
        let base = with_heterogeneous_drift(&base, 4.0);
        let rows = figure_alpha_adaptive(
            &[0.2, 0.6],
            ControlPolicy::adaptive_default(0.2),
            &base,
            20,
            LookupTarget::Total,
        )
        .unwrap();
        assert_eq!(rows.len(), 3);
        // Fixed rows run at, and never move off, their pinned threshold;
        // the adaptive row (last) starts from the base α and stays inside
        // the policy bounds.
        assert_eq!(
            [rows[0].alpha, rows[1].alpha, rows[2].alpha],
            [0.2, 0.6, 0.3]
        );
        assert!(rows[0].final_alphas.iter().all(|&a| a == 0.2));
        assert!(rows[1].final_alphas.iter().all(|&a| a == 0.6));
        assert!(!rows[2].final_alphas.is_empty());
        assert!(rows[2]
            .final_alphas
            .iter()
            .all(|&a| (0.05..=0.9).contains(&a)));
        for r in &rows {
            assert!((0.0..=1.0 + 1e-12).contains(&r.mean_stale_answer_fraction));
            assert!(r.queries > 0);
        }
    }

    #[test]
    fn rebirth_rows_show_decay_vs_stationarity() {
        let mut base = quick_base();
        base.n_peers = 150;
        base.horizon = SimTime::from_hours(8);
        let rows = figure_rebirth(&base, 3600.0, 25, LookupTarget::Total).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].rebirths, 0, "no rebirths when disabled");
        assert!(rows[1].rebirths > 0, "departures trigger re-elections");
        assert!(
            rows[0].n_domains < rows[0].initial_domains,
            "terminal dissolutions decay the population"
        );
        assert!(
            rows[1].mean_live_domains() > rows[0].mean_live_domains(),
            "rebirth keeps more domains alive on average"
        );
        // The trajectory starts at the initial count and is sampled on
        // every dissolution/rebirth.
        let traj = &rows[1].domain_count_trajectory;
        assert_eq!(traj.first().map(|&(_, n)| n), Some(rows[1].initial_domains));
        assert!(traj.len() > 2);
    }

    #[test]
    fn scale_churn_shrinks_every_clock() {
        let base = quick_base();
        let fast = scale_churn(&base, 4.0);
        match (base.lifetime, fast.lifetime) {
            (
                p2psim::churn::LifetimeDistribution::LogNormalMeanMedian {
                    mean_s: m0,
                    median_s: d0,
                },
                p2psim::churn::LifetimeDistribution::LogNormalMeanMedian {
                    mean_s: m1,
                    median_s: d1,
                },
            ) => {
                assert!((m1 - m0 / 4.0).abs() < 1e-9);
                assert!((d1 - d0 / 4.0).abs() < 1e-9);
            }
            other => panic!("distribution family changed: {other:?}"),
        }
        assert!((fast.mean_downtime_s - base.mean_downtime_s / 4.0).abs() < 1e-9);
        fast.validate().unwrap();
    }

    #[test]
    fn reconcile_sweep_scales_with_stale_subset_and_stays_equivalent() {
        let mut base = quick_base();
        base.records_per_peer = 8;
        let points = reconcile_cost_sweep(&[60], &[0.05, 0.5], &base).unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(
                p.equivalent,
                "incremental GS diverged from the oracle: {p:?}"
            );
            assert_eq!(p.incr_merged as usize, p.stale_members);
            assert_eq!(p.incr_skipped as usize, p.n - p.stale_members);
            assert_eq!(p.incr_token_hops, p.incr_merged + 1, "stale hops + store");
            assert_eq!(p.full_merged as usize, p.n);
        }
        // Merge work tracks the stale subset, not the membership.
        assert!(points[0].incr_merged < points[1].incr_merged);
        assert_eq!(points[0].incr_merged, 3, "5% of 60");
    }
}
