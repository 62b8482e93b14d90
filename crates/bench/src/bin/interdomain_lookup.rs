//! Measured inter-domain query routing (§5.2.2): the partial/total
//! lookup companion to Figure 7.
//!
//! Builds the full multi-domain system on a power-law network (domains of
//! ~50 peers), then routes queries with growing result targets `C_t`.
//! Reported: messages, domains visited and recall per target — the
//! measured counterpart of the cost-model's `C_t/((1−FP)·|P_Q|)` domain
//! count in equation (2).

use p2psim::network::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use summary_p2p::config::SimConfig;
use summary_p2p::kernel::{LookupTarget, SimKernel};

use sumq_bench::{f1, f4, render_csv, render_table, Cli};

/// Mean `(messages, recall, domains visited)` of `target` lookups of
/// `template` from `samples` random assigned origins among the `n`
/// peers, drawn with a `seed`-ed RNG. The kernel is static (t = 0), so
/// its live origins are exactly the assigned partners.
fn route_averaged(
    k: &mut SimKernel,
    n: u32,
    template: usize,
    target: LookupTarget,
    samples: usize,
    seed: u64,
) -> (f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let assigned = k.live_origins();
    let mut msgs = 0.0;
    let mut recall = 0.0;
    let mut domains = 0.0;
    let mut taken = 0usize;
    let mut guard = 0usize;
    while taken < samples && guard < samples * 50 {
        guard += 1;
        let origin = NodeId(rng.gen_range(0..n));
        if assigned.binary_search(&origin).is_err() {
            continue;
        }
        let out = k.route_live(origin, template, target);
        msgs += out.messages as f64;
        recall += out.recall();
        domains += out.domains_visited as f64;
        taken += 1;
    }
    let k = taken.max(1) as f64;
    (msgs / k, recall / k, domains / k)
}

fn main() {
    let cli = Cli::parse();
    let n = if cli.quick { 400 } else { 2000 };
    let mut cfg = SimConfig::paper_defaults(n, 0.3);
    cfg.seed = cli.seed;
    cfg.records_per_peer = 16;

    eprintln!(
        "interdomain: building {} peers in ~{} domains ...",
        n,
        n / 50
    );
    let mut k = SimKernel::networked(cfg, 50, None).expect("valid config");
    let total_hits = k.true_matches(0).len();
    eprintln!(
        "built: {} superpeers, {} matching peers for template 0",
        k.live_domains(),
        total_hits
    );

    let mut rows = Vec::new();
    let targets: Vec<(String, LookupTarget)> = [1usize, 5, 10, 25, 50]
        .iter()
        .map(|&ct| (ct.to_string(), LookupTarget::Partial(ct)))
        .chain(std::iter::once(("total".to_string(), LookupTarget::Total)))
        .collect();
    for (name, target) in targets {
        let samples = if cli.quick { 10 } else { 30 };
        let (msgs, recall, domains) =
            route_averaged(&mut k, n as u32, 0, target, samples, cli.seed);
        rows.push(vec![name, f1(msgs), f1(domains), f4(recall)]);
    }

    let headers = ["ct", "messages", "domains_visited", "recall"];
    println!("Inter-domain lookup (n = {n}, ~50 peers/domain)\n");
    println!("{}", render_table(&headers, &rows));
    println!("CSV:\n{}", render_csv(&headers, &rows));
    println!(
        "=> partial lookups terminate early; total lookup covers every domain \
         at full recall (the paper's §5.2.2 termination rule)"
    );
}
