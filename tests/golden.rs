//! Golden fingerprints: a fixed-seed matrix of simulations whose full
//! reports are digested and compared against the checked-in table in
//! `tests/golden/expected.txt`.
//!
//! Each case runs its configuration twice: once through the public
//! facade ([`DomainSim`] / [`MultiDomainSim`]) whose report is printed
//! with `{:?}` and digested with 64-bit FNV-1a, and once through a bare
//! [`SimKernel`] that is run to the horizon, force-reconciled with
//! `reconcile_all` and checked against the from-scratch oracle
//! (`live_gs_matches_oracle`). A table line reads
//! `<case> <digest> <oracle>`.
//!
//! Any change to the simulated behaviour — an event reordered, a
//! message counted differently, a summary merged at another time —
//! moves at least one digest. A refactor must leave the table
//! byte-identical; a deliberate behaviour change updates only the lines
//! it moves and names them in its change notes. To print the current
//! table (for review, or to replace the checked-in one after such a
//! change), run
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test --test golden -- --nocapture
//! ```
//!
//! One more line pins the static view: the networked kernel frozen at
//! t = 0 and probed with `route_live` (see [`static_view`]).

use p2psim::time::SimTime;
use summary_p2p::config::SimConfig;
use summary_p2p::control::ControlPolicy;
use summary_p2p::domain::DomainSim;
use summary_p2p::kernel::{LookupTarget, MultiDomainSim, SimKernel};
use summary_p2p::scenario::{scale_churn, with_heterogeneous_drift, with_latency, with_sp_churn};

/// The checked-in expected table.
const EXPECTED: &str = include_str!("golden/expected.txt");

/// Peers of every networked case.
const NET_PEERS: usize = 130;
/// Peers per domain the networked cases are built for.
const NET_DOMAIN_TARGET: usize = 25;
/// Peers of the single-domain cases.
const DOM_PEERS: usize = 60;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The feature set of a case.
#[derive(Debug, Clone, Copy)]
enum Flavour {
    /// Drift and partner churn only.
    Plain,
    /// Summary-peer churn: departures dissolve domains for good.
    SpChurn,
    /// Summary-peer churn with rebirth (re-election).
    SpRebirth,
    /// Adaptive α with a per-domain drift spread and Zipf queries.
    Adaptive,
    /// The benchmark's `network-latency` recipe at 150 peers over 2 h:
    /// doubled churn, SP churn with rebirth, adaptive α and a drift
    /// spread, all at once.
    Full,
}

impl Flavour {
    fn name(self) -> &'static str {
        match self {
            Flavour::Plain => "plain",
            Flavour::SpChurn => "sp",
            Flavour::SpRebirth => "rebirth",
            Flavour::Adaptive => "adaptive",
            Flavour::Full => "full",
        }
    }

    fn apply(self, c: SimConfig) -> SimConfig {
        match self {
            Flavour::Plain => c,
            Flavour::SpChurn => with_sp_churn(&c, 3600.0),
            Flavour::SpRebirth => {
                let mut c = with_sp_churn(&c, 3600.0);
                c.rebirth = true;
                c
            }
            Flavour::Adaptive => {
                let mut c = with_heterogeneous_drift(&c, 4.0);
                c.control = Some(ControlPolicy::Adaptive {
                    target_staleness: 0.2,
                    alpha_min: 0.05,
                    alpha_max: 0.9,
                    gain: 0.6,
                    epoch_s: 600.0,
                });
                c.zipf_exponent = Some(1.1);
                c
            }
            Flavour::Full => {
                let mut c = scale_churn(&c, 2.0);
                c.n_peers = 150;
                c.horizon = SimTime::from_hours(2);
                c.query_count = 100;
                c.records_per_peer = 16;
                let mut c = with_sp_churn(&c, 2.0 * 3600.0);
                c.rebirth = true;
                c.control = Some(ControlPolicy::Adaptive {
                    target_staleness: 0.2,
                    alpha_min: 0.05,
                    alpha_max: 0.9,
                    gain: 0.6,
                    epoch_s: 600.0,
                });
                with_heterogeneous_drift(&c, 4.0)
            }
        }
    }
}

/// One case of the matrix.
#[derive(Debug, Clone, Copy)]
struct Case {
    networked: bool,
    latency: bool,
    flavour: Flavour,
    target: LookupTarget,
    seed: u64,
}

impl Case {
    fn name(&self) -> String {
        let scope = if self.networked { "net" } else { "dom" };
        let mode = if self.latency { "lat" } else { "inst" };
        let target = match self.target {
            LookupTarget::Total => "total".to_string(),
            LookupTarget::Partial(ct) => format!("p{ct}"),
        };
        if self.networked {
            format!(
                "{scope}-{}-{mode}-{target}-s{}",
                self.flavour.name(),
                self.seed
            )
        } else {
            format!("{scope}-{}-{mode}-s{}", self.flavour.name(), self.seed)
        }
    }

    fn config(&self) -> SimConfig {
        let n = if self.networked { NET_PEERS } else { DOM_PEERS };
        let mut c = SimConfig::paper_defaults(n, 0.3);
        c.horizon = SimTime::from_hours(3);
        c.query_count = 40;
        c.records_per_peer = 10;
        c.seed = self.seed;
        let mut c = self.flavour.apply(c);
        if self.latency {
            c = with_latency(&c, SimTime::from_millis(50));
        }
        c
    }

    /// `(report digest, oracle verdict, headline fields)`.
    fn run(&self) -> (u64, bool, String) {
        let cfg = self.config();
        let (report, headline) = if self.networked {
            let r = MultiDomainSim::new(cfg, NET_DOMAIN_TARGET, self.target)
                .expect("valid config")
                .run();
            let headline = format!(
                "queries={} recall={} stale={} msgs={} reconciliations={} pushes={} \
                 rebirths={} domains={}",
                r.queries,
                r.mean_recall,
                r.mean_stale_answers,
                r.mean_messages,
                r.reconciliations,
                r.push_messages,
                r.rebirths,
                r.n_domains
            );
            (format!("{r:?}"), headline)
        } else {
            let r = DomainSim::new(cfg).expect("valid config").run();
            let headline = format!(
                "queries={} stale_selected={} real_fn={} reconciliations={} pushes={} \
                 reconciliation_bytes={}",
                r.queries,
                r.mean_stale_selected,
                r.mean_real_fn,
                r.reconciliations,
                r.push_messages,
                r.reconciliation_bytes
            );
            (format!("{r:?}"), headline)
        };
        let mut k = if self.networked {
            SimKernel::networked(cfg, NET_DOMAIN_TARGET, Some(self.target))
        } else {
            SimKernel::single_domain(cfg)
        }
        .expect("valid config");
        k.run_until(cfg.horizon);
        assert_eq!(
            k.error_status(),
            (0, None),
            "{}: swallowed errors",
            self.name()
        );
        k.reconcile_all();
        let oracle = k.live_gs_matches_oracle().expect("oracle rebuild");
        (fnv1a(report.as_bytes()), oracle, headline)
    }
}

/// The fixed-seed matrix: single-domain and networked, both delivery
/// modes, every flavour, and (networked) both lookup targets — plus one
/// run of the benchmark's `network-latency` recipe, where rings are
/// slow enough for members to drift after the token passed them.
fn matrix() -> Vec<Case> {
    let mut cases = Vec::new();
    for latency in [false, true] {
        for flavour in [Flavour::Plain, Flavour::Adaptive] {
            cases.push(Case {
                networked: false,
                latency,
                flavour,
                target: LookupTarget::Total,
                seed: 3,
            });
        }
    }
    for latency in [false, true] {
        for (flavour, seed) in [
            (Flavour::Plain, 1),
            (Flavour::SpChurn, 2),
            (Flavour::SpRebirth, 4),
            (Flavour::Adaptive, 5),
        ] {
            for target in [LookupTarget::Total, LookupTarget::Partial(5)] {
                cases.push(Case {
                    networked: true,
                    latency,
                    flavour,
                    target,
                    seed,
                });
            }
        }
    }
    cases.push(Case {
        networked: true,
        latency: true,
        flavour: Flavour::Full,
        target: LookupTarget::Total,
        seed: 7,
    });
    cases
}

/// The table line of the static view.
const STATIC_CASE: &str = "net-static-inst-s1";

/// The static view: `SimKernel::networked(.., None)` (no dynamics)
/// probed with `route_live` from 10 fixed assigned origins under
/// `Partial(1)`, `Partial(5)` and `Total` in turn, so later lookups meet
/// the caches earlier ones warmed. The digest covers the `{:?}` of every
/// outcome and the final `cache_hits()`.
fn static_view() -> (u64, bool) {
    let cfg = Case {
        networked: true,
        latency: false,
        flavour: Flavour::Plain,
        target: LookupTarget::Total,
        seed: 1,
    }
    .config();
    let mut k = SimKernel::networked(cfg, NET_DOMAIN_TARGET, None).expect("valid config");
    // At t = 0 the live origins are exactly the assigned partners.
    let assigned = k.live_origins();
    let step = (assigned.len() / 10).max(1);
    let mut log = String::new();
    for (i, &origin) in assigned.iter().step_by(step).take(10).enumerate() {
        let template = i % k.template_count();
        for target in [
            LookupTarget::Partial(1),
            LookupTarget::Partial(5),
            LookupTarget::Total,
        ] {
            let out = k.route_live(origin, template, target);
            log.push_str(&format!("{out:?}\n"));
        }
    }
    log.push_str(&format!("cache_hits={}", k.cache_hits()));
    k.reconcile_all();
    let oracle = k.live_gs_matches_oracle().expect("oracle rebuild");
    (fnv1a(log.as_bytes()), oracle)
}

fn expected_table() -> Vec<(String, String)> {
    EXPECTED
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, rest) = l.split_once(' ').expect("`<case> <digest> <oracle>`");
            (name.to_string(), rest.to_string())
        })
        .collect()
}

/// Runs every matrix case `selected` keeps and compares it with its
/// expected table line.
fn check(selected: impl Fn(&Case) -> bool) {
    let expected = expected_table();
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    let mut mismatches = Vec::new();
    for case in matrix().into_iter().filter(|c| selected(c)) {
        let name = case.name();
        let (digest, oracle, headline) = case.run();
        let got = format!("{digest:016x} {oracle}");
        if print {
            println!("{name} {got}");
        }
        match expected.iter().find(|(n, _)| *n == name) {
            Some((_, want)) if *want == got => {}
            Some((_, want)) => mismatches.push(format!(
                "{name}: expected `{want}`, got `{got}`\n    {headline}"
            )),
            None => mismatches.push(format!("{name}: no expected entry, got `{got}`")),
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} golden case(s) moved:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn expected_table_lists_exactly_the_matrix() {
    let names: Vec<String> = expected_table().into_iter().map(|(n, _)| n).collect();
    let mut cases: Vec<String> = matrix().iter().map(Case::name).collect();
    cases.push(STATIC_CASE.to_string());
    assert_eq!(names, cases);
}

#[test]
fn static_view_golden() {
    let (digest, oracle) = static_view();
    let got = format!("{digest:016x} {oracle}");
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("{STATIC_CASE} {got}");
    }
    let expected = expected_table();
    let want = expected
        .iter()
        .find(|(n, _)| n == STATIC_CASE)
        .map(|(_, w)| w.as_str());
    assert_eq!(want, Some(got.as_str()), "{STATIC_CASE} moved");
}

#[test]
fn single_domain_goldens() {
    check(|c| !c.networked);
}

#[test]
fn networked_instantaneous_goldens() {
    check(|c| c.networked && !c.latency);
}

#[test]
fn networked_latency_goldens() {
    check(|c| c.networked && c.latency);
}
