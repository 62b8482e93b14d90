//! Figure 7 — *Query cost vs. number of peers*: summary querying (SQ)
//! vs. pure flooding (TTL 3) vs. a centralized index.
//!
//! Exactly as §6.2.3: the centralized cost is the closed form
//! `1 + 2·(0.1·n)`; SQ is `C_Q = 10·C_d + 9·C_f` from the cost model
//! with the worst-case false-positive fraction measured in Figure 4 at
//! α = 0.3; flooding is measured on the simulated power-law topology and
//! reported both raw and normalized to full recall (raw messages divided
//! by measured recall: a TTL-3 flood reaches only part of a large
//! network, so its raw count understates the cost of the full result).
//!
//! Paper's reference point: SQ reduces query cost ≈3.5× vs flooding at
//! n = 2000, and the gap widens with network size.

use summary_p2p::config::SimConfig;
use summary_p2p::scenario::{figure4, figure7};

use sumq_bench::{f1, f4, render_csv, render_table, Cli};

fn main() {
    let cli = Cli::parse();
    let sizes = cli.network_sizes();
    let mut base = SimConfig::paper_defaults(0, 0.3);
    base.seed = cli.seed;

    // Measure the FP fraction the paper injects into the SQ curve
    // (Figure 4, worst case, alpha = 0.3, 500-peer domain).
    eprintln!("fig7: measuring worst-case FP at alpha=0.3 ...");
    let fp = {
        let mut cfg = base;
        cfg.horizon = p2psim::time::SimTime::from_hours(8);
        let pts =
            figure4(&[if cli.quick { 100 } else { 500 }], &[0.3], &cfg).expect("valid config");
        pts[0].worst_stale_fraction()
    };
    eprintln!(
        "fig7: using FP = {fp:.3} (paper: ~0.11); sweeping {} sizes ...",
        sizes.len()
    );

    let rows = figure7(&sizes, fp, &base, if cli.quick { 10 } else { 40 });
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                f1(r.centralized),
                f1(r.summary_querying),
                f1(r.flooding),
                f1(r.flooding_raw),
                f4(r.flooding_recall),
                format!("{:.2}", r.flooding / r.summary_querying),
            ]
        })
        .collect();
    let headers = [
        "n",
        "centralized",
        "sq",
        "flooding",
        "flooding_raw",
        "flood_recall",
        "gain_vs_flood",
    ];
    println!("Figure 7: query cost (messages) vs number of peers\n");
    println!("{}", render_table(&headers, &table_rows));
    println!("CSV:\n{}", render_csv(&headers, &table_rows));

    if let Some(r) = rows.iter().find(|r| r.n == 2000) {
        println!(
            "paper check: n=2000 -> SQ {:.0} msgs, flooding {:.0} (x{:.1} reduction; paper: ~3.5x)",
            r.summary_querying,
            r.flooding,
            r.flooding / r.summary_querying
        );
    }
}
