//! Figure 4 — *Stale answers vs. domain size* (worst case).
//!
//! Sweeps domain sizes 16–5000 and freshness thresholds α, running the
//! full maintenance simulation (drift pushes, churn, reconciliation
//! rings) and reporting the worst-case stale-answer fraction: every
//! stale-flagged partner counts as a false positive when selected in
//! `P_Q` and as a false negative otherwise, exactly as §6.2.2 describes.
//!
//! Paper's reference point: ≈11 % for a 500-peer domain at α = 0.3.

use summary_p2p::config::SimConfig;
use summary_p2p::scenario::figure4;

use sumq_bench::{f4, render_csv, render_table, Cli};

fn main() {
    let cli = Cli::parse();
    let sizes = cli.domain_sizes();
    let alphas = [0.1, 0.3, 0.5, 0.8];
    let mut base = SimConfig::paper_defaults(0, 0.3);
    base.seed = cli.seed;

    eprintln!(
        "fig4: sweeping {} sizes x {} alphas ...",
        sizes.len(),
        alphas.len()
    );
    let rows = figure4(&sizes, &alphas, &base).expect("valid config");

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n_peers.to_string(),
                format!("{:.1}", r.alpha),
                f4(r.worst_stale_fraction()),
                f4(r.mean_stale_selected / r.n_peers as f64),
                f4(r.mean_stale_unselected / r.n_peers as f64),
                r.reconciliations.to_string(),
            ]
        })
        .collect();
    let headers = [
        "n",
        "alpha",
        "stale_frac",
        "fp_component",
        "fn_component",
        "reconciliations",
    ];
    println!("Figure 4: fraction of stale answers (worst case) vs domain size\n");
    println!("{}", render_table(&headers, &table_rows));
    println!("CSV:\n{}", render_csv(&headers, &table_rows));

    // The paper's calibration point.
    if let Some(r) = rows
        .iter()
        .find(|r| r.n_peers == 500 && (r.alpha - 0.3).abs() < 1e-9)
    {
        println!(
            "paper check: n=500, alpha=0.3 -> stale fraction {:.3} (paper: ~0.11)",
            r.worst_stale_fraction()
        );
    }
}
