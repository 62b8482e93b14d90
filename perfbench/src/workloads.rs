//! The three benchmark workloads and the simulations run on them.
//!
//! Every workload enters the simulator through its public entry
//! points: [`DomainSim`] or [`MultiDomainSim`] for the reported
//! simulations, and [`SimKernel`] for the correctness gate, the only
//! handle that exposes `error_status`.

use std::time::Instant;

use p2psim::{LifetimeDistribution, MessageClass, SimTime};
use summary_p2p::costmodel;
use summary_p2p::metrics::{DomainReport, MultiDomainReport};
use summary_p2p::scenario::{scale_churn, with_heterogeneous_drift, with_latency, with_sp_churn};
use summary_p2p::{ControlPolicy, DomainSim, LookupTarget, MultiDomainSim, SimConfig, SimKernel};

use crate::trace::Tracer;

/// Peers per domain the network workloads are built for (`n / 50`
/// summary peers, about 20 domains of 50).
pub const DOMAIN_TARGET: usize = 50;

/// Virtual slice length of the traced run: the kernel is advanced one
/// slice at a time and each slice is a span.
pub const SLICE: SimTime = SimTime::from_secs(60);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 1 000-member domain at α 0.1 (Figures 4–6 scale-out axis).
    DomainLarge,
    /// 1 000 peers in ~20 domains under doubled churn, instantaneous
    /// delivery, every opt-in extension off.
    NetworkChurn,
    /// The same network on the latency plane with SP churn, rebirth and
    /// adaptive α.
    NetworkLatency,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::DomainLarge,
        Workload::NetworkChurn,
        Workload::NetworkLatency,
    ];

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DomainLarge => "domain-large",
            Workload::NetworkChurn => "network-churn",
            Workload::NetworkLatency => "network-latency",
        }
    }

    /// Whether the workload runs the networked (multi-domain) kernel.
    pub fn is_network(self) -> bool {
        self != Workload::DomainLarge
    }

    /// Members of one domain: the GS size the layer probes work at.
    pub fn domain_size(self) -> usize {
        match self {
            Workload::DomainLarge => 1000,
            _ => DOMAIN_TARGET,
        }
    }

    /// Virtual hours of one simulation. Shorter than the paper's 12 h so
    /// that one run averages several seeds: message counts per lookup
    /// depend on the seed far more than on the horizon. On the latency
    /// plane they spread most once SP churn and rebirth have rewired
    /// the domains, so `network-latency` averages more, shorter runs.
    pub fn horizon_h(self) -> u64 {
        match self {
            Workload::NetworkLatency => 2,
            _ => 4,
        }
    }

    /// Host seconds one simulation (set-up plus run) takes on one core
    /// of a 2-vCPU Intel Xeon virtual machine; sets how many simulations
    /// fit in the requested measuring time.
    pub fn nominal_sim_s(self) -> f64 {
        match self {
            Workload::DomainLarge => 3.4,
            Workload::NetworkChurn => 3.4,
            Workload::NetworkLatency => 1.9,
        }
    }

    /// The workload's configuration at one seed.
    pub fn config(self, seed: u64) -> SimConfig {
        let hours = self.horizon_h() as f64 / 12.0;
        let mut c = match self {
            Workload::DomainLarge => {
                let mut c = SimConfig::paper_defaults(1000, 0.1);
                c.query_count = (200.0 * hours).round() as usize;
                c
            }
            Workload::NetworkChurn | Workload::NetworkLatency => {
                let mut c = scale_churn(&SimConfig::paper_defaults(1000, 0.3), 2.0);
                c.records_per_peer = 16;
                c.query_count = (1000.0 * hours).round() as usize;
                c
            }
        };
        if self == Workload::NetworkLatency {
            c.query_count = (600.0 * hours).round() as usize;
            c = with_latency(&c, SimTime::from_millis(50));
            c = with_sp_churn(&c, 2.0 * 3600.0);
            c.rebirth = true;
            c.control = Some(ControlPolicy::Adaptive {
                target_staleness: 0.2,
                alpha_min: 0.05,
                alpha_max: 0.9,
                gain: 0.6,
                epoch_s: 600.0,
            });
            c = with_heterogeneous_drift(&c, 4.0);
        }
        c.horizon = SimTime::from_hours(self.horizon_h());
        c.seed = seed;
        c
    }
}

/// The `i`-th simulation seed of a run started with `seed` (SplitMix64
/// of the pair, so neighbouring run seeds share no simulation seed).
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((i as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The message classes, in the order the benchmark reports them.
pub const CLASSES: [(MessageClass, &str); 7] = [
    (MessageClass::Construction, "construction"),
    (MessageClass::Push, "push"),
    (MessageClass::Reconciliation, "reconciliation"),
    (MessageClass::Query, "query"),
    (MessageClass::QueryResponse, "query_response"),
    (MessageClass::Flood, "flood"),
    (MessageClass::Control, "control"),
];

/// What one finished simulation reported, in the benchmark's terms.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The full report, printed: equal strings mean equal reports.
    pub fingerprint: String,
    /// Queries answered: inter-domain lookups, or local queries on
    /// `domain-large`.
    pub queries: usize,
    pub recall: f64,
    pub stale_answer_fraction: f64,
    pub msgs_per_lookup: f64,
    pub maint_msgs_per_peer_h: f64,
    pub tta_s: f64,
    pub reconciliations: u64,
    pub merged_members: u64,
    pub skipped_members: u64,
    pub pulled_bytes: u64,
    pub push_msgs: u64,
    pub reconciliation_msgs: u64,
    pub construction_msgs: u64,
    /// Message-plane deliveries per class, in [`CLASSES`] order.
    pub deliveries: [u64; 7],
    pub peak_in_flight: u64,
    pub cache_hits: u64,
    pub domains_visited: f64,
    /// Live domains at the horizon.
    pub live_domains: usize,
    /// Peers per domain at construction.
    pub mean_domain_size: f64,
    pub min_live_domains: usize,
    pub rebirths: u64,
    pub mean_final_alpha: f64,
    /// §6.1's predicted update cost, messages per peer per hour.
    pub model_maint_msgs_per_peer_h: f64,
    /// §6.1's predicted query cost, messages per query.
    pub model_msgs_per_lookup: f64,
}

/// Mean local-summary lifetime `L` of eq. (1).
fn mean_lifetime_s(cfg: &SimConfig) -> f64 {
    let LifetimeDistribution::LogNormalMeanMedian { mean_s, .. } = cfg.lifetime else {
        unreachable!("every workload keeps Table 3's lognormal lifetime")
    };
    mean_s
}

/// Eq. (1) with the measured reconciliation rate as `F_rec`, per hour.
fn model_update_per_peer_h(cfg: &SimConfig, reconciliation_msgs: u64) -> f64 {
    let peer_s = cfg.n_peers as f64 * cfg.horizon.as_secs_f64();
    costmodel::update_cost(mean_lifetime_s(cfg), reconciliation_msgs as f64 / peer_s) * 3600.0
}

impl Outcome {
    fn from_domain(cfg: &SimConfig, r: &DomainReport) -> Self {
        let peer_h = r.n_peers as f64 * r.horizon_s / 3600.0;
        let fp = if r.mean_pq > 0.0 {
            r.mean_real_fp / r.mean_pq
        } else {
            0.0
        };
        Self {
            fingerprint: format!("{r:?}"),
            queries: r.queries,
            recall: r.mean_recall(),
            stale_answer_fraction: r.worst_stale_fraction(),
            msgs_per_lookup: r.query_messages as f64 / r.queries.max(1) as f64,
            maint_msgs_per_peer_h: r.update_messages() as f64 / peer_h,
            tta_s: 0.0,
            reconciliations: r.reconciliations,
            merged_members: r.reconcile_merged_members,
            skipped_members: r.reconcile_skipped_members,
            pulled_bytes: r.reconcile_delta_bytes,
            push_msgs: r.push_messages,
            reconciliation_msgs: r.reconciliation_messages,
            construction_msgs: r.construction_messages,
            deliveries: [0; 7],
            peak_in_flight: 0,
            cache_hits: 0,
            domains_visited: 1.0,
            live_domains: 1,
            mean_domain_size: r.n_peers as f64,
            min_live_domains: 1,
            rebirths: 0,
            mean_final_alpha: r.final_alpha,
            model_maint_msgs_per_peer_h: model_update_per_peer_h(cfg, r.reconciliation_messages),
            model_msgs_per_lookup: costmodel::domain_query_cost(r.mean_pq, fp),
        }
    }

    fn from_multi(cfg: &SimConfig, r: &MultiDomainReport) -> Self {
        let peer_h = r.n_peers as f64 * r.horizon_s / 3600.0;
        let mut deliveries = [0u64; 7];
        for &(class, n, _) in &r.latency_by_class {
            let slot = CLASSES.iter().position(|&(c, _)| c == class);
            deliveries[slot.expect("every message class is listed")] = n;
        }
        // §6.2.3's form of eq. (2) for a Total lookup: every domain is
        // queried (C_d each) and joined by one long-link flood (C_f).
        let domains = r.initial_domains.max(1) as f64;
        let pq = cfg.expected_hits() / domains;
        let fp = r.mean_stale_answer_fraction;
        let cd = costmodel::domain_query_cost(pq, fp);
        let cf = costmodel::interdomain_flood_cost(pq, fp, cfg.interdomain_k, 1);
        Self {
            fingerprint: format!("{r:?}"),
            queries: r.queries,
            recall: r.mean_recall,
            stale_answer_fraction: r.mean_stale_answer_fraction,
            msgs_per_lookup: r.mean_messages,
            maint_msgs_per_peer_h: (r.push_messages + r.reconciliation_messages) as f64 / peer_h,
            tta_s: r.mean_time_to_answer_s,
            reconciliations: r.reconciliations,
            merged_members: r.reconcile_merged_members,
            skipped_members: r.reconcile_skipped_members,
            pulled_bytes: r.reconcile_delta_bytes,
            push_msgs: r.push_messages,
            reconciliation_msgs: r.reconciliation_messages,
            construction_msgs: r.construction_messages,
            deliveries,
            peak_in_flight: r.peak_in_flight,
            cache_hits: r.cache_hits,
            domains_visited: r.mean_domains_visited,
            live_domains: r.n_domains,
            mean_domain_size: r.n_peers as f64 / domains,
            min_live_domains: r.min_live_domains,
            rebirths: r.rebirths,
            mean_final_alpha: r.mean_final_alpha,
            model_maint_msgs_per_peer_h: model_update_per_peer_h(cfg, r.reconciliation_messages),
            model_msgs_per_lookup: domains * cd + (domains - 1.0) * cf,
        }
    }

    /// Checks that hold for every healthy report.
    pub fn check(&self) -> Result<(), String> {
        if self.queries == 0 {
            return Err("no query or lookup was recorded".into());
        }
        for (name, v) in [
            ("recall", self.recall),
            ("stale answer fraction", self.stale_answer_fraction),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} {v} outside [0, 1]"));
            }
        }
        Ok(())
    }
}

/// Host seconds of one simulation's two phases.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// `new`: workload generation, topology and construction.
    pub setup_s: f64,
    /// From built to horizon, report included.
    pub run_s: f64,
}

/// Runs one simulation through the public facade and reports it. With a
/// tracer, a network workload is advanced one [`SLICE`] at a time and
/// each slice is a span; `DomainSim` cannot be advanced in slices.
pub fn simulate(
    w: Workload,
    cfg: SimConfig,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Timing, Outcome), String> {
    let t = Instant::now();
    if !w.is_network() {
        let sim = DomainSim::new(cfg).map_err(|e| e.to_string())?;
        let setup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let report = sim.run();
        let run_s = t.elapsed().as_secs_f64();
        return Ok((
            Timing { setup_s, run_s },
            Outcome::from_domain(&cfg, &report),
        ));
    }
    let mut sim =
        MultiDomainSim::new(cfg, DOMAIN_TARGET, LookupTarget::Total).map_err(|e| e.to_string())?;
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    if let Some(tracer) = tracer.as_deref_mut() {
        for at in slices(cfg.horizon) {
            let id = tracer.enter("kernel.slice");
            sim.advance_to(at);
            tracer.exit(id);
        }
    }
    let report = match tracer {
        Some(tracer) => {
            let id = tracer.enter("kernel.report");
            let report = sim.run();
            tracer.exit(id);
            report
        }
        None => sim.run(),
    };
    let run_s = t.elapsed().as_secs_f64();
    Ok((
        Timing { setup_s, run_s },
        Outcome::from_multi(&cfg, &report),
    ))
}

/// Slice end points up to and including the horizon.
fn slices(horizon: SimTime) -> Vec<SimTime> {
    let n = horizon.0.div_ceil(SLICE.0);
    (1..=n)
        .map(|i| SimTime((i * SLICE.0).min(horizon.0)))
        .collect()
}

/// The kernel state a gate run can read at the horizon: enough to tell
/// whether two runs saw the same event and RNG streams.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelState {
    pub live_fraction: f64,
    pub mean_stale_fraction: f64,
    pub cache_hits: u64,
    pub rebirths: u64,
    pub peak_in_flight: u64,
    pub live_domains: usize,
    /// Ground truth per template: which live peers match it.
    pub true_matches: Vec<Vec<u32>>,
}

impl KernelState {
    fn read(k: &SimKernel) -> Self {
        Self {
            live_fraction: k.live_fraction(),
            mean_stale_fraction: k.mean_stale_fraction(),
            cache_hits: k.cache_hits(),
            rebirths: k.rebirths(),
            peak_in_flight: k.peak_in_flight(),
            live_domains: k.live_domains(),
            true_matches: (0..k.template_count())
                .map(|t| k.true_matches(t).iter().map(|p| p.0).collect())
                .collect(),
        }
    }

    /// The counters a report of the same seed must agree on.
    pub fn agrees_with(&self, o: &Outcome) -> bool {
        self.cache_hits == o.cache_hits
            && self.rebirths == o.rebirths
            && self.peak_in_flight == o.peak_in_flight
            && self.live_domains == o.live_domains
    }
}

/// The correctness gate: runs the workload on a bare [`SimKernel`]
/// (sliced when traced), requires that no domain error was swallowed,
/// then forces a reconciliation round and requires every live domain's
/// incrementally maintained GS to equal its from-scratch oracle.
pub fn gate(
    w: Workload,
    cfg: SimConfig,
    tracer: Option<&mut Tracer>,
) -> Result<(Timing, KernelState), String> {
    let t = Instant::now();
    let mut k = if w.is_network() {
        SimKernel::networked(cfg, DOMAIN_TARGET, Some(LookupTarget::Total))
    } else {
        SimKernel::single_domain(cfg)
    }
    .map_err(|e| e.to_string())?;
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    match tracer {
        Some(tracer) => {
            for at in slices(cfg.horizon) {
                let id = tracer.enter("kernel.slice");
                k.run_until(at);
                tracer.exit(id);
            }
        }
        None => k.run_until(cfg.horizon),
    }
    let run_s = t.elapsed().as_secs_f64();
    let state = KernelState::read(&k);
    check_errors(&k, "during the run")?;
    k.reconcile_all();
    check_errors(&k, "in the final reconciliation")?;
    match k.live_gs_matches_oracle() {
        Ok(true) => Ok((Timing { setup_s, run_s }, state)),
        Ok(false) => Err("a live domain's GS differs from its from-scratch oracle".into()),
        Err(e) => Err(format!("oracle rebuild failed: {e}")),
    }
}

fn check_errors(k: &SimKernel, when: &str) -> Result<(), String> {
    match k.error_status() {
        (0, None) => Ok(()),
        (n, first) => Err(format!(
            "{n} domain-state error(s) swallowed {when}; first: {first:?}"
        )),
    }
}
