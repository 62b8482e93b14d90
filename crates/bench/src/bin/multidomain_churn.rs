//! Multi-domain routing under churn — the unified-kernel experiment.
//!
//! Builds the full multi-domain system on a power-law network and runs
//! §5.2.2 inter-domain lookups *while* summary drift, churn sessions and
//! α-gated reconciliation mutate every domain's GS/CL in one virtual
//! clock. Sweeps churn intensity at two freshness thresholds and
//! reports network-wide recall, stale answers, false negatives and the
//! maintenance traffic the recall was bought with.
//!
//! With `--latency` the message plane is enabled: every push, token,
//! query and flood rides a virtual-time delivery event, the table gains
//! a time-to-answer column, and a `BENCH_latency.json` summary (mean
//! time-to-answer, peak messages in flight, per-hop sweep) is written
//! for the perf trajectory.
//!
//! With `--reconcile` the binary instead measures one §4.2.2 pull
//! full-scratch vs incrementally (`scenario::reconcile_cost_sweep`) at
//! two domain sizes and several drift fractions, and writes
//! `BENCH_reconcile.json` — the perf-trajectory evidence that per-round
//! merge work scales with the stale subset, not total membership, and
//! that the incremental GS stays byte-identical to the from-scratch
//! oracle.
//!
//! With `--adaptive` the binary runs the staleness/bandwidth frontier
//! experiment instead (`scenario::figure_alpha_adaptive`): the same
//! heterogeneous-drift network once per fixed α and once under the
//! feedback control plane, and writes `BENCH_alpha.json` — whether
//! adaptive per-domain α holds the network-wide stale-answer fraction
//! within ±20% of its target while spending no more reconciliation
//! delta bytes than the best fixed α of comparable staleness.
//!
//! With `--rebirth` the binary runs the long-horizon SP-churn
//! stationarity experiment instead (`scenario::figure_rebirth`): the
//! same network once with terminal §4.3 dissolutions (departed summary
//! peers never return — the live-domain count decays monotonically)
//! and once with SP rebirth enabled (each dissolved domain re-elects a
//! replacement SP from its own live hubs, latency-aware on the message
//! plane), and writes `BENCH_rebirth.json` — the live-domain-count
//! trajectory, rebirth counts, and whether the time-weighted mean
//! domain count stayed within ±10% of its initial value.
//!
//! With `--zipf` the workload draws query templates from a Zipf(1.2)
//! popularity distribution instead of round-robin. Both `--zipf` and
//! `--latency` compose with the churn table and with `--adaptive` /
//! `--rebirth`. Run with `--help` for the full flag ↔ BENCH-artifact
//! map.
//!
//! Reading: at the paper's α, reconciliation frequency adapts to the
//! churn rate and recall stays in the α-band; with a lax α the pull
//! cannot keep up and recall degrades monotonically with churn.

use std::fs;

use p2psim::time::SimTime;
use summary_p2p::config::SimConfig;
use summary_p2p::control::ControlPolicy;
use summary_p2p::kernel::LookupTarget;
use summary_p2p::scenario::{
    figure_alpha_adaptive, figure_latency_sweep, figure_multidomain_churn, figure_rebirth,
    reconcile_cost_sweep, with_heterogeneous_drift, with_latency,
};

use sumq_bench::{f1, f4, render_csv, render_table, Cli};

fn main() {
    let cli = Cli::parse();
    if cli.reconcile {
        write_reconcile_summary(&cli);
        return;
    }
    if cli.adaptive {
        write_alpha_summary(&cli);
        return;
    }
    if cli.rebirth {
        write_rebirth_summary(&cli);
        return;
    }
    let scales: &[f64] = if cli.quick {
        &[0.5, 2.0, 4.0]
    } else {
        &[0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let alphas = [0.3, 0.8];

    let mut rows = Vec::new();
    for &alpha in &alphas {
        let base = base_config(&cli, alpha);
        let n = base.n_peers;
        eprintln!(
            "multidomain-churn: {} peers in ~{} domains, alpha {alpha}, {} churn scales{} ...",
            n,
            n / 50,
            scales.len(),
            if cli.latency {
                ", latency plane on"
            } else {
                ""
            }
        );
        let reports =
            figure_multidomain_churn(scales, &base, 50, LookupTarget::Total).expect("valid config");
        for (scale, r) in scales.iter().zip(reports) {
            rows.push(vec![
                f1(*scale),
                format!("{alpha:.1}"),
                r.queries.to_string(),
                f4(r.mean_recall),
                f4(r.mean_stale_answers),
                f4(r.mean_false_negatives),
                f1(r.mean_messages),
                f4(r.mean_time_to_answer_s),
                r.reconciliations.to_string(),
                r.push_messages.to_string(),
                r.cache_hits.to_string(),
            ]);
        }
    }

    let headers = [
        "churn_scale",
        "alpha",
        "queries",
        "recall",
        "stale_answers",
        "false_negatives",
        "msgs_per_query",
        "tta_s",
        "reconciliations",
        "push_msgs",
        "cache_hits",
    ];
    println!("{}", render_table(&headers, &rows));
    println!("{}", render_csv(&headers, &rows));

    if cli.latency {
        write_latency_summary(&cli);
    }
}

/// The network every dynamic mode starts from: paper defaults at the
/// mode's size (300 peers quick, 1 500 full) and `alpha`, the seed, 16
/// records a peer and 60 (quick) or 200 lookups, plus the `--latency`
/// plane (50 ms hops) and `--zipf` popularity when asked for.
fn base_config(cli: &Cli, alpha: f64) -> SimConfig {
    let mut base = SimConfig::paper_defaults(if cli.quick { 300 } else { 1500 }, alpha);
    base.seed = cli.seed;
    base.records_per_peer = 16;
    base.query_count = if cli.quick { 60 } else { 200 };
    if cli.latency {
        base = with_latency(&base, SimTime::from_millis(50));
    }
    if cli.zipf {
        base.zipf_exponent = Some(1.2);
    }
    base
}

/// Runs the hop-latency sweep and writes `BENCH_latency.json` — the
/// perf-trajectory summary of the message plane.
fn write_latency_summary(cli: &Cli) {
    let hops: &[u64] = if cli.quick {
        &[5, 200, 2000]
    } else {
        &[1, 5, 50, 200, 2000, 20_000]
    };
    // Each sweep point replaces the base's 50 ms hop with its own.
    let base = base_config(cli, 0.3);
    eprintln!("latency sweep: {} hop settings ...", hops.len());
    let points = figure_latency_sweep(hops, &base, 50, LookupTarget::Total).expect("valid config");

    let mut sweep = String::new();
    for (i, (hop_ms, p)) in hops.iter().zip(&points).enumerate() {
        if i > 0 {
            sweep.push(',');
        }
        sweep.push_str(&format!(
            "\n    {{\"hop_ms\": {}, \"mean_time_to_answer_s\": {:.6}, \"peak_in_flight\": {}, \
             \"mean_recall\": {:.6}, \"mean_stale_answers\": {:.6}, \"mean_messages\": {:.2}}}",
            hop_ms,
            p.mean_time_to_answer_s,
            p.peak_in_flight,
            p.mean_recall,
            p.mean_stale_answers,
            p.mean_messages
        ));
    }
    let mid = &points[points.len() / 2];
    let json = format!(
        "{{\n  \"bench\": \"latency_plane\",\n  \"n_peers\": {},\n  \"seed\": {},\n  \
         \"mean_time_to_answer_s\": {:.6},\n  \"peak_in_flight\": {},\n  \"sweep\": [{}\n  ]\n}}\n",
        base.n_peers, cli.seed, mid.mean_time_to_answer_s, mid.peak_in_flight, sweep
    );
    fs::write("BENCH_latency.json", &json).expect("write BENCH_latency.json");
    eprintln!("wrote BENCH_latency.json");
}

/// Runs the heterogeneous-drift fixed-α sweep vs the adaptive control
/// plane and writes `BENCH_alpha.json`: the staleness/bandwidth
/// frontier plus the acceptance comparison — adaptive within ±20% of
/// its staleness target, at no more pull bytes than the best fixed α
/// of comparable staleness.
fn write_alpha_summary(cli: &Cli) {
    let fixed: &[f64] = &[0.1, 0.2, 0.3, 0.5, 0.8];
    let target_staleness = 0.2;
    let policy = ControlPolicy::Adaptive {
        target_staleness,
        alpha_min: 0.05,
        alpha_max: 0.9,
        gain: 0.6,
        epoch_s: 600.0,
    };
    // base.alpha doubles as the adaptive controller's starting point:
    // mid-range, so neither frontier end is favored by the transient.
    let mut base = base_config(cli, 0.5);
    if cli.quick {
        base.query_count = 120;
    }
    let base = with_heterogeneous_drift(&base, 4.0);
    let n = base.n_peers;
    eprintln!(
        "adaptive-alpha frontier: {} peers, drift spread 4.0, {} fixed alphas + adaptive{}{} ...",
        n,
        fixed.len(),
        if cli.latency {
            ", latency plane on"
        } else {
            ""
        },
        if cli.zipf { ", zipf workload" } else { "" }
    );
    let points =
        figure_alpha_adaptive(fixed, policy, &base, 50, LookupTarget::Total).expect("valid config");
    // One label per report: the fixed rows in order, the adaptive row last.
    let labels: Vec<String> = fixed
        .iter()
        .map(|a| format!("fixed-{a:.2}"))
        .chain(std::iter::once("adaptive".into()))
        .collect();

    let headers = [
        "policy",
        "stale_fraction",
        "recall",
        "delta_kb",
        "reconciliations",
        "mean_final_alpha",
        "alpha_spread",
    ];
    let rows: Vec<Vec<String>> = labels
        .iter()
        .zip(&points)
        .map(|(label, p)| {
            let (lo, hi) = p
                .final_alphas
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &a| {
                    (lo.min(a), hi.max(a))
                });
            vec![
                label.clone(),
                f4(p.mean_stale_answer_fraction),
                f4(p.mean_recall),
                f1(p.reconcile_delta_bytes as f64 / 1024.0),
                p.reconciliations.to_string(),
                f4(p.mean_final_alpha),
                format!("{lo:.2}..{hi:.2}"),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!("{}", render_csv(&headers, &rows));

    let adaptive = points.last().expect("adaptive row is always appended");
    let stale_within_band =
        (adaptive.mean_stale_answer_fraction - target_staleness).abs() <= 0.2 * target_staleness;
    // The fixed comparator: cheapest pull bytes among the fixed rows
    // achieving staleness at least as good as the adaptive run did (a
    // staler fixed α is not achieving comparable staleness — it sits
    // on an easier point of the frontier).
    let best_fixed = points[..points.len() - 1]
        .iter()
        .filter(|p| p.mean_stale_answer_fraction <= adaptive.mean_stale_answer_fraction * 1.05)
        .min_by_key(|p| p.reconcile_delta_bytes);
    let bytes_within_best_fixed =
        best_fixed.is_none_or(|b| adaptive.reconcile_delta_bytes <= b.reconcile_delta_bytes);

    let mut sweep = String::new();
    for (i, (label, p)) in labels.iter().zip(&points).enumerate() {
        if i > 0 {
            sweep.push(',');
        }
        let alphas = p
            .final_alphas
            .iter()
            .map(|a| format!("{a:.4}"))
            .collect::<Vec<_>>()
            .join(", ");
        sweep.push_str(&format!(
            "\n    {{\"policy\": \"{}\", \"stale_answer_fraction\": {:.6}, \
             \"mean_recall\": {:.6}, \"reconcile_delta_bytes\": {}, \
             \"reconciliations\": {}, \"mean_final_alpha\": {:.6}, \
             \"final_alphas\": [{}]}}",
            label,
            p.mean_stale_answer_fraction,
            p.mean_recall,
            p.reconcile_delta_bytes,
            p.reconciliations,
            p.mean_final_alpha,
            alphas
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"alpha_adaptive\",\n  \"n_peers\": {},\n  \"seed\": {},\n  \
         \"drift_spread\": 4.0,\n  \"target_staleness\": {:.4},\n  \
         \"adaptive_stale_answer_fraction\": {:.6},\n  \"stale_within_20pct_of_target\": {},\n  \
         \"adaptive_delta_bytes\": {},\n  \"best_fixed_alpha\": {},\n  \
         \"best_fixed_delta_bytes\": {},\n  \"bytes_within_best_fixed\": {},\n  \
         \"sweep\": [{}\n  ]\n}}\n",
        n,
        cli.seed,
        target_staleness,
        adaptive.mean_stale_answer_fraction,
        stale_within_band,
        adaptive.reconcile_delta_bytes,
        best_fixed.map_or("null".into(), |b| format!("{:.2}", b.alpha)),
        best_fixed.map_or("null".into(), |b| b.reconcile_delta_bytes.to_string()),
        bytes_within_best_fixed,
        sweep
    );
    fs::write("BENCH_alpha.json", &json).expect("write BENCH_alpha.json");
    eprintln!(
        "wrote BENCH_alpha.json (stale_within_band: {stale_within_band}, \
         bytes_within_best_fixed: {bytes_within_best_fixed})"
    );
}

/// Runs the long-horizon SP-churn stationarity experiment — terminal
/// dissolutions vs latency-aware SP rebirth — and writes
/// `BENCH_rebirth.json`: both rows, the rebirth run's live-domain
/// trajectory, and the ±10% stationarity check on the time-weighted
/// mean live-domain count.
fn write_rebirth_summary(cli: &Cli) {
    let horizon_h = if cli.quick { 12 } else { 24 };
    let sp_mean_s = if cli.quick {
        2.0 * 3600.0
    } else {
        4.0 * 3600.0
    };
    let mut base = base_config(cli, 0.3);
    base.horizon = SimTime::from_hours(horizon_h);
    let n = base.n_peers;
    eprintln!(
        "sp-rebirth stationarity: {n} peers in ~{} domains over {horizon_h} h, \
         SP mean lifetime {:.0} h, rebirth off vs on{} ...",
        n / 50,
        sp_mean_s / 3600.0,
        if cli.latency {
            ", latency plane on"
        } else {
            ""
        }
    );
    let points = figure_rebirth(&base, sp_mean_s, 50, LookupTarget::Total).expect("valid config");

    let headers = [
        "rebirth",
        "initial_domains",
        "final_domains",
        "min_domains",
        "mean_domains",
        "rebirths",
        "recall",
        "stale_answers",
        "reconciliations",
    ];
    let rows: Vec<Vec<String>> = [false, true]
        .iter()
        .zip(&points)
        .map(|(rebirth, p)| {
            vec![
                rebirth.to_string(),
                p.initial_domains.to_string(),
                p.n_domains.to_string(),
                p.min_live_domains.to_string(),
                f1(p.mean_live_domains()),
                p.rebirths.to_string(),
                f4(p.mean_recall),
                f4(p.mean_stale_answers),
                p.reconciliations.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!("{}", render_csv(&headers, &rows));

    let off = &points[0];
    let on = &points[1];
    let initial = on.initial_domains as f64;
    let stationary_within_10pct =
        initial > 0.0 && (on.mean_live_domains() - initial).abs() <= 0.1 * initial;
    let trajectory = on
        .domain_count_trajectory
        .iter()
        .map(|(t, n)| format!("[{t:.1}, {n}]"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"sp_rebirth\",\n  \"n_peers\": {},\n  \"seed\": {},\n  \
         \"horizon_h\": {},\n  \"sp_mean_lifetime_s\": {:.0},\n  \
         \"initial_domains\": {},\n  \"off_final_domains\": {},\n  \
         \"off_mean_live_domains\": {:.3},\n  \"on_final_domains\": {},\n  \
         \"on_min_live_domains\": {},\n  \"on_mean_live_domains\": {:.3},\n  \
         \"rebirths\": {},\n  \"stationary_within_10pct\": {},\n  \
         \"off_mean_recall\": {:.6},\n  \"on_mean_recall\": {:.6},\n  \
         \"on_domain_count_trajectory\": [{}]\n}}\n",
        n,
        cli.seed,
        horizon_h,
        sp_mean_s,
        on.initial_domains,
        off.n_domains,
        off.mean_live_domains(),
        on.n_domains,
        on.min_live_domains,
        on.mean_live_domains(),
        on.rebirths,
        stationary_within_10pct,
        off.mean_recall,
        on.mean_recall,
        trajectory
    );
    fs::write("BENCH_rebirth.json", &json).expect("write BENCH_rebirth.json");
    eprintln!(
        "wrote BENCH_rebirth.json (rebirths: {}, stationary_within_10pct: \
         {stationary_within_10pct}, off decayed to {}/{} domains)",
        on.rebirths, off.n_domains, off.initial_domains
    );
}

/// Runs the full-vs-incremental reconciliation sweep and writes
/// `BENCH_reconcile.json` — per-round merge work and wall-clock of one
/// pull, both ways, at two domain sizes.
fn write_reconcile_summary(cli: &Cli) {
    let sizes: &[usize] = if cli.quick {
        &[300, 1000]
    } else {
        &[1000, 5000]
    };
    let fractions = [0.01, 0.1, 0.5];
    let mut base = SimConfig::paper_defaults(sizes[0], 0.3);
    base.seed = cli.seed;
    base.records_per_peer = if cli.quick { 10 } else { 16 };
    eprintln!(
        "reconcile sweep: {} domain sizes x {} drift fractions ...",
        sizes.len(),
        fractions.len()
    );
    let points = reconcile_cost_sweep(sizes, &fractions, &base).expect("valid config");

    let headers = [
        "n",
        "drift",
        "stale",
        "incr_merged",
        "incr_skipped",
        "incr_delta_kb",
        "incr_hops",
        "incr_ms",
        "full_merged",
        "full_ms",
        "equivalent",
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.n.to_string(),
                format!("{:.2}", p.drift_fraction),
                p.stale_members.to_string(),
                p.incr_merged.to_string(),
                p.incr_skipped.to_string(),
                f1(p.incr_delta_bytes as f64 / 1024.0),
                p.incr_token_hops.to_string(),
                f1(p.incr_micros as f64 / 1000.0),
                p.full_merged.to_string(),
                f1(p.full_micros as f64 / 1000.0),
                p.equivalent.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!("{}", render_csv(&headers, &rows));

    let mut body = String::new();
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "\n    {{\"n\": {}, \"drift_fraction\": {:.2}, \"stale_members\": {}, \
             \"incr_merged_members\": {}, \"incr_skipped_members\": {}, \
             \"incr_delta_bytes\": {}, \"incr_token_hops\": {}, \"incr_micros\": {}, \
             \"full_merged_members\": {}, \"full_micros\": {}, \"gs_bytes\": {}, \
             \"equivalent\": {}}}",
            p.n,
            p.drift_fraction,
            p.stale_members,
            p.incr_merged,
            p.incr_skipped,
            p.incr_delta_bytes,
            p.incr_token_hops,
            p.incr_micros,
            p.full_merged,
            p.full_micros,
            p.gs_bytes,
            p.equivalent
        ));
    }
    // Headline: the 1%-drift round at the largest size.
    let headline = points
        .iter()
        .filter(|p| p.drift_fraction <= 0.011)
        .max_by_key(|p| p.n)
        .expect("sweep is non-empty");
    assert!(
        headline.equivalent,
        "incremental GS diverged from the from-scratch oracle"
    );
    let json = format!(
        "{{\n  \"bench\": \"reconcile_incremental\",\n  \"seed\": {},\n  \
         \"headline_n\": {},\n  \"headline_drift_fraction\": {:.2},\n  \
         \"headline_incr_merged_members\": {},\n  \"headline_full_merged_members\": {},\n  \
         \"headline_incr_micros\": {},\n  \"headline_full_micros\": {},\n  \
         \"sweep\": [{}\n  ]\n}}\n",
        cli.seed,
        headline.n,
        headline.drift_fraction,
        headline.incr_merged,
        headline.full_merged,
        headline.incr_micros,
        headline.full_micros,
        body
    );
    fs::write("BENCH_reconcile.json", &json).expect("write BENCH_reconcile.json");
    eprintln!("wrote BENCH_reconcile.json");
}
