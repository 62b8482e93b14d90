//! Figure 5 — *False negatives vs. domain size* (real case).
//!
//! Same maintenance simulation as Figure 4, but queries route with the
//! precision-maximizing policy `V = P_Q ∩ P_fresh` and the accounting is
//! *real*: a false negative is a peer that **currently** holds matching
//! data yet was not visited — i.e. the stale flag only hurts when the
//! database modification actually affected the query.
//!
//! Paper's claims: ≤3 % for domains below 2000 peers, and a ≈4.5×
//! reduction versus Figure 4's worst-case values.

use summary_p2p::config::SimConfig;
use summary_p2p::scenario::{figure4, figure5};

use sumq_bench::{f4, render_csv, render_table, Cli};

fn main() {
    let cli = Cli::parse();
    let sizes = cli.domain_sizes();
    let mut base = SimConfig::paper_defaults(0, 0.3);
    base.seed = cli.seed;

    eprintln!(
        "fig5: sweeping {} sizes (alpha = 0.3, fresh-only policy) ...",
        sizes.len()
    );
    let real = figure5(&sizes, &base).expect("valid config");
    let worst = figure4(&sizes, &[0.3], &base).expect("valid config");

    let table_rows: Vec<Vec<String>> = real
        .iter()
        .zip(&worst)
        .map(|(r, w)| {
            let (real_fn, worst) = (r.real_fn_fraction(), w.worst_stale_fraction());
            let reduction = if real_fn > 0.0 {
                worst / real_fn
            } else {
                f64::NAN
            };
            vec![
                r.n_peers.to_string(),
                f4(real_fn),
                f4(worst),
                format!("{reduction:.1}"),
                f4(r.mean_recall()),
            ]
        })
        .collect();
    let headers = ["n", "real_fn_frac", "worst_stale", "reduction_x", "recall"];
    println!("Figure 5: fraction of (real) false negatives vs domain size\n");
    println!("{}", render_table(&headers, &table_rows));
    println!("CSV:\n{}", render_csv(&headers, &table_rows));

    let below_2000: Vec<f64> = real
        .iter()
        .filter(|r| r.n_peers < 2000)
        .map(|r| r.real_fn_fraction())
        .collect();
    if !below_2000.is_empty() {
        let max_fn = below_2000.iter().copied().fold(0.0, f64::max);
        println!("paper check: max real-FN fraction below n=2000 is {max_fn:.3} (paper: <=0.03)");
    }
}
