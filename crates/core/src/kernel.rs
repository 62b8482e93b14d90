//! The unified event-driven simulation kernel and its message plane.
//!
//! One `p2psim::Simulator` event loop drives *every* process of the
//! paper in a single virtual clock, for one domain or for a whole
//! multi-domain network:
//!
//! * **summary drift** — per-peer lifetimes from Table 3's lognormal;
//!   on expiry the peer's database is regenerated and a `push` flags its
//!   cooperation-list entry;
//! * **churn** — session schedules with graceful leaves (`v = 2`
//!   pushes) and silent failures (GS poison until the next pull), plus —
//!   when [`crate::config::SimConfig::sp_lifetime`] is set — summary-peer
//!   departures that dissolve a domain mid-run and re-home its partners
//!   (§4.3, [`crate::construction::handle_sp_departure`]);
//! * **reconciliation** — per-domain α-gated token rings, started by
//!   the push / `localsum` deliveries that cross α. Rings are
//!   *incremental*: the token only visits the stale subset of the
//!   cooperation list (`RingConversation::stale_route`); fresh
//!   members' contributions stay in the domain's
//!   [`saintetiq::delta::GsAccumulator`] untouched and departed members
//!   are expired in O(1), so per-round merge work scales with how much
//!   actually changed, not with membership (see the [`crate::peerstate`]
//!   module docs for the full design and the byte-identical
//!   full-rebuild oracle);
//! * **queries** — intra-domain workload samples
//!   ([`KernelEvent::LocalQuery`]) and, in networked mode, inter-domain
//!   lookups ([`KernelEvent::InterQuery`]) routed against the *live*
//!   per-domain GS/CL state via §5.2.2's flooding + long-link protocol;
//! * **α control** — every α-gated decision reads the domain's
//!   *effective* threshold from the maintenance control plane
//!   ([`crate::control`]). The default fixed policy never moves it and
//!   schedules nothing; under
//!   [`crate::control::ControlPolicy::Adaptive`] a recurring
//!   [`KernelEvent::ControlTick`] feeds each live domain's measured
//!   stale-answer fraction and pull cost into one bounded proportional
//!   step per epoch.
//!
//! ## The message plane
//!
//! Every protocol message — push, `localsum`, reconciliation token,
//! query, query-hit, flood request — leaves through one send path,
//! which counts it in the [`MessageLedger`], and takes effect in the
//! `deliver_*` handler it reaches. Each maintenance protocol (§4.2.1's
//! push, §4.1/§4.3's `localsum`, §4.2.2's token ring) therefore exists
//! once, as messages; the delivery mode only picks the transport.
//!
//! Under [`crate::config::DeliveryMode::Latency`] the transport is
//! *scheduled*: a message becomes a [`KernelEvent::Deliver`] at
//! `now + transit`, where transit is the topology link latency
//! (partner↔SP hops use the construction broadcast-tree latency,
//! unknown hops the configured default) plus the per-class
//! serialization cost of [`Message::wire_bytes`] at the configured
//! bandwidth. Effects happen at *delivery* time:
//!
//! * a reconciliation ring is a conversation of token deliveries
//!   (`RingConversation`): each live member snapshots its summary into
//!   the token; a member that churned out mid-ring silently drops the
//!   token and the SP's watchdog completes the pull with what was
//!   gathered (missed live members keep their stale flags, re-arming α);
//! * an inter-domain lookup is a conversation of query / flood / hit
//!   deliveries (`LookupConversation`): per-peer answers are
//!   re-validated on arrival, so peers that churn out while their
//!   answer is in flight surface as stale answers, and the recorded
//!   [`MultiDomainOutcome::time_to_answer_s`] is the genuine virtual
//!   time between posing the query and meeting (or abandoning) its
//!   target.
//!
//! Under [`crate::config::DeliveryMode::Instantaneous`] (the default)
//! the transport is *inline*: a message is delivered inside the event
//! that sent it, through a FIFO that only the outermost send drains. A
//! ring started by a delivery runs its token hops iteratively in the
//! same event, so every conversation completes before the next event,
//! nothing is ever in flight and no watchdog is scheduled — the same
//! handlers, with zero transit time, reproduce the Figure 4–7
//! pipelines. Inter-domain lookups keep the synchronous
//! [`SimKernel::route_live`] in this mode: it is also the probe oracle
//! behind [`MultiDomainSim::route_now`], and it counts messages
//! differently from the lookup conversation (one reply per cache
//! holder rather than one hit per cached candidate, and every long
//! link rather than only those reaching an unseen domain), so routing
//! instantaneous lookups through the conversation would move the
//! instantaneous message figures. Both modes are deterministic under a
//! fixed seed — neither transport draws randomness.
//!
//! [`SimKernel::single_domain`] and [`SimKernel::networked`] are the two
//! builders, and both end in one assembly. A networked kernel built
//! without dynamics is the static t = 0 view of §5.2.2, probed with
//! [`SimKernel::route_live`]. [`crate::domain::DomainSim`] and
//! [`MultiDomainSim`] are thin facades that run a kernel to its report;
//! probes that need more of the kernel build one directly. Probe entry
//! points ([`SimKernel::route_live`], [`MultiDomainSim::route_now`],
//! [`SimKernel::reconcile_all`]) stay synchronous oracles in both modes.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use fuzzy::bk::BackgroundKnowledge;
use p2psim::churn::{ChurnConfig, SessionEvent, SessionSchedule};
use p2psim::network::{Network, NodeId};
use p2psim::sim::Simulator;
use p2psim::time::SimTime;
use p2psim::topology::{Graph, TopologyConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use saintetiq::delta::GsAccumulator;
use saintetiq::engine::EngineConfig;
use saintetiq::query::proposition::{reformulate, SummaryQuery};
use saintetiq::query::relevant_sources;
use saintetiq::wire;

use crate::cache::QueryCache;
use crate::config::{LatencyConfig, SimConfig};
use crate::construction::{
    construct_domains, dissolve_domain, elect_replacement_sp, elect_superpeers,
    handle_sp_departure, rebirth_broadcast, Domains, ElectionPolicy,
};
use crate::control::AlphaController;
use crate::error::P2pError;
use crate::freshness::Freshness;
use crate::messages::Message;
use crate::metrics::{DomainReport, MultiDomainReport};
use crate::peerstate::{empty_accumulator, DomainCore, MessageLedger, PeerState, SummarySnapshot};
use crate::routing::{LookupConversation, QueryOutcome, RebirthConversation, RingConversation};
use crate::workload::{generate_peer_data, make_templates, QueryTemplate, ZipfSampler};

/// Sentinel id for the implicit summary peer of the single-domain
/// simulation (it has no slot in the peer vector or the topology).
const IMPLICIT_SP: NodeId = NodeId(u32::MAX);

/// How many results a query needs (§5.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupTarget {
    /// `C_t` result tuples suffice.
    Partial(usize),
    /// Every result in the network is wanted.
    Total,
}

impl LookupTarget {
    /// Results the lookup needs before it stops: `C_t`, or every result
    /// (`usize::MAX`) for a total lookup.
    pub(crate) fn need(self) -> usize {
        match self {
            LookupTarget::Partial(ct) => ct,
            LookupTarget::Total => usize::MAX,
        }
    }
}

/// Outcome of one multi-domain query.
#[derive(Debug, Clone)]
pub struct MultiDomainOutcome {
    /// Result tuples gathered (one per answering peer — the paper's
    /// high-selectivity assumption).
    pub results: usize,
    /// Ground-truth result count network-wide (live matching peers).
    pub results_total: usize,
    /// Domains whose GS was queried.
    pub domains_visited: usize,
    /// Total messages (intra-domain + flooding + responses).
    pub messages: u64,
    /// Whether the lookup target was met.
    pub satisfied: bool,
    /// Stale answers: peers the (possibly outdated) global summaries
    /// selected that turned out to be down or no longer matching.
    pub stale_answers: usize,
    /// Validated answers the global summaries selected — the
    /// summary-routing successes `stale_answers` is the failure side
    /// of. Excludes results recovered through §5.2.2 answer caches,
    /// which no summary vouched for; `stale / (stale + summary)` is
    /// therefore the stale-answer fraction of summary routing itself,
    /// the signal the adaptive control plane steers.
    pub summary_results: usize,
    /// Virtual seconds between posing the query and completing the
    /// lookup. Strictly positive under the latency message plane; 0.0
    /// in instantaneous mode and for synchronous probes.
    pub time_to_answer_s: f64,
}

impl MultiDomainOutcome {
    /// Network-wide recall of the query.
    pub fn recall(&self) -> f64 {
        if self.results_total == 0 {
            1.0
        } else {
            self.results as f64 / self.results_total as f64
        }
    }

    /// Network-wide false negatives: live matching peers the lookup
    /// never reached (stale summaries, unvisited domains, or an early
    /// partial-lookup stop).
    pub fn false_negatives(&self) -> usize {
        self.results_total.saturating_sub(self.results)
    }

    fn empty(results_total: usize) -> Self {
        Self {
            results: 0,
            results_total,
            domains_visited: 0,
            messages: 0,
            satisfied: false,
            stale_answers: 0,
            summary_results: 0,
            time_to_answer_s: 0.0,
        }
    }
}

/// Simulation events of the unified kernel.
#[derive(Debug, Clone)]
pub enum KernelEvent {
    /// A partner's local summary lifetime expired (data drifted).
    Drift(NodeId),
    /// A churn transition.
    Session(SessionEvent),
    /// An intra-domain workload query (single-domain mode).
    LocalQuery {
        /// Workload template index.
        template: usize,
    },
    /// An inter-domain lookup posed at a partner peer (networked mode).
    InterQuery {
        /// The originating partner.
        origin: NodeId,
        /// Workload template index.
        template: usize,
    },
    /// Latency mode: a protocol message reaches its destination — all
    /// effects of the message happen now, not at send time.
    Deliver {
        /// Sender (for query hits: the peer the answer is about).
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The message.
        msg: Message,
        /// Conversation id (0 for fire-and-forget messages).
        conv: u64,
        /// Virtual send time (delivery latency = now − sent_at).
        sent_at: SimTime,
    },
    /// Latency mode: watchdog of a reconciliation ring — if the token
    /// was dropped at a churned-out member, the SP completes the pull
    /// with the snapshots gathered so far.
    RingTimeout {
        /// The ring conversation.
        conv: u64,
    },
    /// Latency mode: watchdog of an inter-domain lookup — records the
    /// outcome with whatever answers arrived.
    LookupTimeout {
        /// The lookup conversation.
        conv: u64,
    },
    /// A summary peer's session ends (§4.3): the domain dissolves and
    /// its partners re-home. Scheduled only when
    /// [`crate::config::SimConfig::sp_lifetime`] is set.
    SpDeparture {
        /// The departing summary peer.
        sp: NodeId,
    },
    /// Rebirth, step 1 (§4.3 completed): a dissolved domain elects a
    /// replacement SP from its live hub candidates —
    /// [`crate::construction::ElectionPolicy::LatencyAware`] on the
    /// message plane, degree order otherwise. Scheduled only when
    /// [`crate::config::SimConfig::rebirth`] is set, after the release
    /// transit (graceful departure) or the failure-detection timeout.
    SpElection {
        /// The dissolved domain slot.
        domain: usize,
    },
    /// Rebirth, step 2: the elected SP takes the domain over — the
    /// slot revives seeded from the retained member descriptions, the
    /// orphans re-home to the newborn SP, and their `localsum`
    /// confirmations run as a `routing::RebirthConversation`.
    SpTakeover {
        /// The reborn domain slot.
        domain: usize,
        /// The election winner.
        sp: NodeId,
    },
    /// Latency mode: watchdog of a rebirth hand-over — completes the
    /// conversation with whatever confirmations arrived.
    RebirthTimeout {
        /// The rebirth conversation.
        conv: u64,
    },
    /// One control epoch of the maintenance control plane
    /// ([`crate::control`]): every live domain's controller folds the
    /// epoch's measured feedback into its effective α. Scheduled
    /// recurring only under [`crate::control::ControlPolicy::Adaptive`],
    /// so fixed-α runs keep their event streams byte-identical. Draws
    /// no randomness.
    ControlTick,
}

/// The unified simulation state: peers + domains + (optionally) the
/// physical network, driven by one event loop.
pub struct SimKernel {
    pub(crate) cfg: SimConfig,
    bk: BackgroundKnowledge,
    templates: Vec<QueryTemplate>,
    reformulated: Vec<SummaryQuery>,
    sim: Simulator<KernelEvent>,
    pub(crate) peers: Vec<Option<PeerState>>,
    pub(crate) domains: Vec<DomainCore>,
    domain_of: Vec<Option<usize>>,
    sp_index: BTreeMap<NodeId, usize>,
    pub(crate) ledger: MessageLedger,
    outcomes: Vec<QueryOutcome>,
    inter_outcomes: Vec<(SimTime, MultiDomainOutcome)>,
    pub(crate) net: Option<Network>,
    pub(crate) topo: Option<Domains>,
    caches: Vec<QueryCache>,
    cache_hits: u64,
    target: LookupTarget,
    /// The latency plane, when enabled (`cfg.latency()` cached).
    lat: Option<LatencyConfig>,
    /// Conversation id source (0 is reserved for fire-and-forget).
    next_conv: u64,
    rings: BTreeMap<u64, RingConversation>,
    /// Active ring conversation per domain (at most one at a time).
    ring_of_domain: Vec<Option<u64>>,
    lookups: BTreeMap<u64, LookupConversation>,
    /// Inline transport (instantaneous mode): messages sent during the
    /// current delivery, drained in FIFO order by the outermost send.
    inline: VecDeque<(NodeId, NodeId, Message, u64)>,
    /// True while the outermost send drains `inline`.
    draining: bool,
    /// Messages currently in flight (latency mode).
    in_flight: u64,
    /// High-water mark of `in_flight`.
    peak_in_flight: u64,
    /// Domain-state errors swallowed by the event loop (impossible for
    /// well-formed configurations; counted instead of panicking).
    domain_errors: u64,
    /// The first such error, kept for diagnostics.
    first_error: Option<P2pError>,
    /// The maintenance control plane: one controller per domain slot
    /// holding that domain's effective α (fixed, or fed back each
    /// control epoch).
    ctl: AlphaController,
    /// Dissolved domains awaiting a rebirth election, keyed by slot:
    /// the retained membership, accumulator and CL flags the reborn
    /// domain is seeded from ([`crate::config::SimConfig::rebirth`]).
    pending_rebirths: BTreeMap<usize, RebirthSeed>,
    /// In-flight rebirth hand-over conversations (latency mode).
    rebirth_convs: BTreeMap<u64, RebirthConversation>,
    /// Summary peers that were promoted out of the partner pool by a
    /// rebirth. When such an SP's own session ends, its node returns
    /// to the network as a regular (down) peer and its next scheduled
    /// session join brings it back with a fresh database — without
    /// this the data population would drain by one peer per rebirth
    /// and no long horizon could be stationary.
    promoted_sps: BTreeSet<NodeId>,
    /// Completed SP rebirths over the run.
    rebirths: u64,
    /// `(virtual time, live domains)` samples: the initial point plus
    /// one per dissolution and per rebirth — the domain-count
    /// trajectory `BENCH_rebirth.json` plots. Recorded only when SP
    /// churn is on (empty otherwise).
    domain_trajectory: Vec<(SimTime, usize)>,
}

/// What a dissolved domain retains for its rebirth (§4.3 completed):
/// the membership at dissolution time, the accumulator of member
/// descriptions (descriptions persist until refreshed or expired —
/// §4.3; the newborn SP is seeded from them so its first GS build is a
/// delta hand-over), and the CL freshness flags so only the
/// already-stale subset needs the first pull.
struct RebirthSeed {
    members: Vec<NodeId>,
    acc: GsAccumulator,
    flags: BTreeMap<NodeId, Freshness>,
    /// Set when an election ran and found nobody up: only then does a
    /// former member's rejoin re-trigger the election. Before that,
    /// the regularly scheduled [`KernelEvent::SpElection`] (which
    /// models the release-transit / failure-detection delay) is the
    /// one that must run first.
    stalled: bool,
}

/// The medical workload every kernel mode shares: the CBK plus the
/// query templates and their reformulations against it.
type Workload = (BackgroundKnowledge, Vec<QueryTemplate>, Vec<SummaryQuery>);

/// Builds the [`Workload`].
fn build_workload(cfg: &SimConfig) -> Result<Workload, P2pError> {
    let bk = BackgroundKnowledge::medical_cbk();
    let templates = make_templates(cfg.template_count);
    let reformulated: Vec<SummaryQuery> = templates
        .iter()
        .map(|t| reformulate(&t.query, &bk))
        .collect::<Result<_, _>>()?;
    Ok((bk, templates, reformulated))
}

/// Query sample times: `(template, at)` pairs spread across
/// (10%..100%) of the horizon so the first samples already see
/// steady-state maintenance.
fn query_sample_times(cfg: &SimConfig, template_count: usize) -> Vec<(usize, SimTime)> {
    (0..cfg.query_count)
        .map(|i| {
            let frac = 0.1 + 0.9 * (i as f64 / cfg.query_count as f64);
            let at = SimTime::from_secs_f64(cfg.horizon.as_secs_f64() * frac);
            (i % template_count, at)
        })
        .collect()
}

/// An SP's `k` long-range links: sampled *without replacement* from a
/// shuffle of the other SPs in `roster`, so small SP sets still receive
/// their full `k` links, deterministically from the seeded `rng`.
fn sample_long_links(sp: NodeId, roster: &[NodeId], k: usize, rng: &mut StdRng) -> Vec<NodeId> {
    let mut candidates: Vec<NodeId> = roster.iter().copied().filter(|&o| o != sp).collect();
    candidates.shuffle(rng);
    candidates.truncate(k);
    candidates.sort_unstable_by_key(|n| n.0);
    candidates
}

impl SimKernel {
    /// Builds the single-domain simulation: one summary peer with every
    /// generated peer as partner, plus drift, churn and the intra-domain
    /// query workload scheduled across the horizon — the exact
    /// [`crate::domain::DomainSim`] semantics.
    pub fn single_domain(cfg: SimConfig) -> Result<Self, P2pError> {
        cfg.validate()?;
        let workload = build_workload(&cfg)?;
        // Single-domain peer data is drawn from the event loop's RNG.
        let mut sim = Simulator::<KernelEvent>::new(cfg.seed);
        let peers = (0..cfg.n_peers)
            .map(|p| {
                let data = generate_peer_data(
                    sim.rng(),
                    p as u32,
                    &workload.0,
                    &workload.1,
                    cfg.match_fraction,
                    cfg.records_per_peer,
                )?;
                Ok(Some(PeerState::new(data)))
            })
            .collect::<Result<_, P2pError>>()?;
        let domain = DomainCore::new(None, (0..cfg.n_peers as u32).map(NodeId).collect());
        Self::assemble(
            cfg,
            workload,
            sim,
            peers,
            vec![domain],
            None,
            Some(LookupTarget::Total),
        )
    }

    /// Builds the networked multi-domain system: topology → SP election
    /// → domain construction → per-peer data + local summaries →
    /// per-domain global summaries → SP long-range links. With
    /// `dynamics`, additionally schedules drift, churn and sampled
    /// inter-domain lookups so maintenance and routing interleave in
    /// virtual time; without it the system is frozen at t = 0 — the
    /// static view, probed with [`SimKernel::route_live`].
    pub fn networked(
        cfg: SimConfig,
        domain_target: usize,
        dynamics: Option<LookupTarget>,
    ) -> Result<Self, P2pError> {
        cfg.validate()?;
        // Topology, peer data and long links come from a build RNG of
        // their own.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let topo_cfg = TopologyConfig {
            nodes: cfg.n_peers,
            m: cfg.topology_m,
            ..Default::default()
        };
        let mut net = Network::new(Graph::barabasi_albert(&topo_cfg, &mut rng));

        let sp_count = (cfg.n_peers / domain_target.max(2)).max(1);
        let superpeers = elect_superpeers(&net, sp_count);
        let topo = construct_domains(&mut net, &superpeers, cfg.sumpeer_ttl);

        let workload = build_workload(&cfg)?;
        let mut peers: Vec<Option<PeerState>> = vec![None; cfg.n_peers];
        for (i, assignment) in topo.assignment.iter().enumerate() {
            if assignment.is_some() {
                peers[i] = Some(PeerState::new(generate_peer_data(
                    &mut rng,
                    i as u32,
                    &workload.0,
                    &workload.1,
                    cfg.match_fraction,
                    cfg.records_per_peer,
                )?));
            }
        }

        let k = cfg.interdomain_k.round() as usize;
        let domains = superpeers
            .iter()
            .map(|&sp| {
                let mut core = DomainCore::new(Some(sp), topo.members(sp));
                core.long_links = sample_long_links(sp, &superpeers, k, &mut rng);
                core
            })
            .collect();

        // The event loop's RNG is decorrelated from the build RNG (both
        // derive from cfg.seed, so an XOR constant keeps their streams
        // distinct while staying reproducible).
        let sim = Simulator::<KernelEvent>::new(cfg.seed ^ 0x5D1F_77A3_9C24_E8B1);
        Self::assemble(
            cfg,
            workload,
            sim,
            peers,
            domains,
            Some((net, topo)),
            dynamics,
        )
    }

    /// The one kernel assembly both builders end in: enrolls every
    /// domain's members (their `localsum`s build the first GS), derives
    /// the peer → domain and SP → domain maps from the domains, and with
    /// `dynamics` schedules the event load, whose lookups aim at the
    /// given target.
    fn assemble(
        cfg: SimConfig,
        (bk, templates, reformulated): Workload,
        mut sim: Simulator<KernelEvent>,
        mut peers: Vec<Option<PeerState>>,
        mut domains: Vec<DomainCore>,
        network: Option<(Network, Domains)>,
        dynamics: Option<LookupTarget>,
    ) -> Result<Self, P2pError> {
        let mut ledger = MessageLedger::new();
        let mut domain_of = vec![None; cfg.n_peers];
        let mut sp_index = BTreeMap::new();
        for (d, core) in domains.iter_mut().enumerate() {
            core.enroll_all(&mut peers, &mut ledger)?;
            for &m in &core.members {
                domain_of[m.index()] = Some(d);
            }
            if let Some(sp) = core.sp {
                sp_index.insert(sp, d);
            }
        }
        sim.set_horizon(cfg.horizon);
        let (net, topo) = network.unzip();
        let caches = match net {
            Some(_) => (0..cfg.n_peers).map(|_| QueryCache::new(8)).collect(),
            None => Vec::new(),
        };
        let n_domains = domains.len();
        let mut this = Self {
            cfg,
            bk,
            templates,
            reformulated,
            sim,
            peers,
            domains,
            domain_of,
            sp_index,
            ledger,
            outcomes: Vec::new(),
            inter_outcomes: Vec::new(),
            net,
            topo,
            caches,
            cache_hits: 0,
            target: dynamics.unwrap_or(LookupTarget::Total),
            lat: cfg.latency(),
            next_conv: 1,
            rings: BTreeMap::new(),
            ring_of_domain: vec![None; n_domains],
            lookups: BTreeMap::new(),
            inline: VecDeque::new(),
            draining: false,
            in_flight: 0,
            peak_in_flight: 0,
            domain_errors: 0,
            first_error: None,
            ctl: AlphaController::new(cfg.control_policy(), n_domains, cfg.alpha),
            pending_rebirths: BTreeMap::new(),
            rebirth_convs: BTreeMap::new(),
            promoted_sps: BTreeSet::new(),
            rebirths: 0,
            domain_trajectory: Vec::new(),
        };
        if dynamics.is_some() {
            this.schedule_dynamics();
        }
        Ok(this)
    }

    /// Schedules the dynamic event load. The order is part of the
    /// behaviour (the draws share the event-loop RNG, and the queue
    /// breaks time ties first-in first-out): drift, churn, queries, SP
    /// sessions, control, then the first domain-count sample. Features a
    /// configuration leaves off schedule and draw nothing.
    fn schedule_dynamics(&mut self) {
        self.schedule_drift_all();
        self.schedule_churn();
        self.schedule_queries();
        self.schedule_sp_sessions();
        self.schedule_control();
        self.record_domain_count();
    }

    /// Schedules the first control epoch when the adaptive policy is
    /// on. Fixed-α runs schedule nothing, keeping their event streams
    /// byte-identical to the pre-control-plane kernel.
    fn schedule_control(&mut self) {
        if let Some(epoch) = self.ctl.epoch() {
            self.sim.schedule_in(epoch, KernelEvent::ControlTick);
        }
    }

    /// Samples one drift interval for peer `p`, scaled by its domain's
    /// drift rate on the heterogeneous-drift axis
    /// ([`crate::config::SimConfig::drift_spread`]).
    fn drift_interval(&mut self, p: NodeId) -> SimTime {
        let dt = self.cfg.lifetime.sample(self.sim.rng());
        if self.cfg.drift_spread == 1.0 {
            return dt;
        }
        let rate = self.domain_drift_rate(p);
        SimTime::from_secs_f64(dt.as_secs_f64() / rate)
    }

    /// The per-domain drift-rate multiplier: log-spaced in
    /// `[1/spread, spread]` across domain indices (1.0 for orphans and
    /// single-domain runs).
    fn domain_drift_rate(&self, p: NodeId) -> f64 {
        let Some(d) = self.domain_of.get(p.index()).copied().flatten() else {
            return 1.0;
        };
        let n = self.domains.len();
        if n <= 1 {
            return 1.0;
        }
        let x = d as f64 / (n - 1) as f64;
        self.cfg.drift_spread.powf(2.0 * x - 1.0)
    }

    /// Schedules one departure per summary peer when SP churn is
    /// enabled (`cfg.sp_lifetime`). Disabled by default, so the event
    /// and RNG streams of existing configurations are untouched.
    fn schedule_sp_sessions(&mut self) {
        let Some(dist) = self.cfg.sp_lifetime else {
            return;
        };
        let sps: Vec<NodeId> = self.sp_index.keys().copied().collect();
        for sp in sps {
            let dt = dist.sample(self.sim.rng());
            self.sim.schedule_in(dt, KernelEvent::SpDeparture { sp });
        }
    }

    /// Every peer holding partner state (assigned at build time).
    fn partners(&self) -> Vec<NodeId> {
        (0..self.cfg.n_peers as u32)
            .map(NodeId)
            .filter(|p| self.peers[p.index()].is_some())
            .collect()
    }

    /// Schedules the first drift expiry of every partner.
    fn schedule_drift_all(&mut self) {
        for p in self.partners() {
            let dt = self.drift_interval(p);
            self.sim.schedule_in(dt, KernelEvent::Drift(p));
        }
    }

    /// Schedules the churn session stream for every partner.
    fn schedule_churn(&mut self) {
        let churn_cfg = ChurnConfig {
            lifetime: self.cfg.lifetime,
            mean_downtime_s: self.cfg.mean_downtime_s,
            failure_fraction: self.cfg.failure_fraction,
        };
        let partners = self.partners();
        let schedule =
            SessionSchedule::generate_for(&partners, self.cfg.horizon, &churn_cfg, self.sim.rng());
        for &(t, ev) in schedule.events() {
            self.sim.schedule_at(t, KernelEvent::Session(ev));
        }
    }

    /// Samples `query_count` queries across (10%..100%) of the horizon:
    /// intra-domain workload queries without a network, inter-domain
    /// lookups from random partners with one.
    fn schedule_queries(&mut self) {
        let origins = self.net.is_some().then(|| self.partners());
        if origins.as_ref().is_some_and(Vec::is_empty) {
            return;
        }
        let zipf = self
            .cfg
            .zipf_exponent
            .map(|s| ZipfSampler::new(self.templates.len(), s));
        for (template, at) in query_sample_times(&self.cfg, self.templates.len()) {
            let origin = origins
                .as_ref()
                .map(|o| o[self.sim.rng().gen_range(0..o.len())]);
            let template = match &zipf {
                Some(z) => z.sample(self.sim.rng()),
                None => template,
            };
            let ev = match origin {
                Some(origin) => KernelEvent::InterQuery { origin, template },
                None => KernelEvent::LocalQuery { template },
            };
            self.sim.schedule_at(at, ev);
        }
    }

    /// Processes one event.
    fn handle(&mut self, ev: KernelEvent) {
        match ev {
            KernelEvent::Drift(p) => {
                let idx = p.index();
                if self.is_up(p) {
                    // The data drifted: regenerate the database and its
                    // local summary, then push the stale flag. A
                    // generation failure (impossible for a config that
                    // built) keeps the previous data.
                    if let Ok(data) = generate_peer_data(
                        self.sim.rng(),
                        p.0,
                        &self.bk,
                        &self.templates,
                        self.cfg.match_fraction,
                        self.cfg.records_per_peer,
                    ) {
                        let st = self.peers[idx].as_mut().expect("up peer has state");
                        st.data = data;
                        // Stays set until the new summary is merged into
                        // an accumulator — the rebirth seeding signal
                        // for pushes lost to a dissolving domain.
                        st.dirty = true;
                    }
                    if let Some(d) = self.domain_of[idx] {
                        self.send_push(p, d, 1);
                    }
                    let dt = self.drift_interval(p);
                    self.sim.schedule_in(dt, KernelEvent::Drift(p));
                } else if let Some(st) = self.peers[idx].as_mut() {
                    // While down: drift pauses; rejoin restarts it.
                    st.drift_scheduled = false;
                }
            }
            KernelEvent::Session(SessionEvent::Leave(p)) => {
                let idx = p.index();
                if self.is_up(p) {
                    self.peers[idx].as_mut().expect("checked").up = false;
                    if let Some(net) = self.net.as_mut() {
                        net.take_down(p);
                    }
                    // The graceful `v = 2` push. It is sent after the
                    // peer is marked down (transit does not depend on
                    // liveness), so an inline delivery already sees the
                    // departure when its push arms a pull.
                    if let Some(d) = self.domain_of[idx] {
                        self.send_push(p, d, 2);
                    }
                }
            }
            KernelEvent::Session(SessionEvent::Fail(p)) => {
                // Silent: no message, CL unchanged — the GS now carries
                // descriptions of unavailable data until reconciliation.
                if let Some(st) = self.peers[p.index()].as_mut() {
                    st.up = false;
                    if let Some(net) = self.net.as_mut() {
                        net.take_down(p);
                    }
                }
            }
            KernelEvent::Session(SessionEvent::Join(p)) => {
                let idx = p.index();
                if self.peers[idx].as_ref().is_some_and(|s| !s.up) {
                    self.peers[idx].as_mut().expect("checked").up = true;
                    if let Some(net) = self.net.as_mut() {
                        net.bring_up(p);
                    }
                    if let Some(d) = self.domain_of[idx] {
                        self.send_localsum(p, d, SimTime::ZERO, 0);
                    } else if self.cfg.sp_lifetime.is_some() {
                        // A rejoiner whose former domain still awaits a
                        // replacement SP re-triggers the stalled
                        // election instead of walking away — it is a
                        // live candidate now, so the rebirth that found
                        // an all-down membership can finally proceed.
                        let pending = self
                            .cfg
                            .rebirth
                            .then(|| {
                                self.pending_rebirths
                                    .iter()
                                    .find(|(_, seed)| seed.stalled && seed.members.contains(&p))
                                    .map(|(&d, _)| d)
                            })
                            .flatten();
                        if let Some(d) = pending {
                            self.handle_sp_election(d);
                        }
                        // An orphan of a dissolved domain walks to a
                        // surviving one on rejoin (gated on SP churn so
                        // legacy event streams stay byte-identical).
                        else if let Some(d) = self.rehome_orphan(p) {
                            self.send_localsum(p, d, SimTime::ZERO, 0);
                        }
                    }
                    let st = self.peers[idx].as_mut().expect("checked");
                    let restart_drift = !st.drift_scheduled;
                    st.drift_scheduled = true;
                    if restart_drift {
                        let dt = self.drift_interval(p);
                        self.sim.schedule_in(dt, KernelEvent::Drift(p));
                    }
                }
            }
            KernelEvent::LocalQuery { template } => {
                // The query travels to the (implicit) SP first; its
                // processing happens at delivery time.
                self.send_msg(
                    IMPLICIT_SP,
                    self.sp_node(0),
                    Message::Query { template },
                    0,
                    SimTime::ZERO,
                );
            }
            KernelEvent::InterQuery { origin, template } => {
                // Only live peers pose queries; a down origin's sample is
                // simply skipped (nobody is there to ask).
                if self.is_up(origin) {
                    if self.lat.is_some() {
                        self.start_lookup(origin, template);
                    } else {
                        let target = self.target;
                        let out = self.route_live(origin, template, target);
                        self.inter_outcomes.push((self.sim.now(), out));
                    }
                }
            }
            KernelEvent::Deliver {
                from,
                to,
                msg,
                conv,
                sent_at,
            } => self.deliver(from, to, msg, conv, sent_at),
            KernelEvent::RingTimeout { conv } => self.finish_ring(conv),
            KernelEvent::LookupTimeout { conv } => {
                // The watchdog is a lookup's last reference: once it
                // fired, the finished conversation is reaped.
                self.finish_lookup(conv);
                self.lookups.remove(&conv);
            }
            KernelEvent::SpDeparture { sp } => self.handle_sp_departure_event(sp),
            KernelEvent::SpElection { domain } => self.handle_sp_election(domain),
            KernelEvent::SpTakeover { domain, sp } => self.handle_sp_takeover(domain, sp),
            KernelEvent::RebirthTimeout { conv } => {
                if self.rebirth_convs.get(&conv).is_some_and(|rc| rc.done) {
                    // Cancelled mid-flight (the reborn SP departed
                    // again): the watchdog is the last reference, so
                    // it reaps the entry.
                    self.rebirth_convs.remove(&conv);
                } else {
                    self.finish_rebirth(conv);
                }
            }
            KernelEvent::ControlTick => self.control_tick(),
        }
    }

    /// One control epoch: every live domain's controller folds the
    /// epoch's measured feedback (query staleness, pull cost) into its
    /// effective α, and a tightened α may arm a pull right away.
    fn control_tick(&mut self) {
        let Some(epoch) = self.ctl.epoch() else {
            return;
        };
        let now_s = self.sim.now().as_secs_f64();
        for d in 0..self.domains.len() {
            if self.domains[d].dissolved {
                continue;
            }
            let fallback = self.domains[d].cl.stale_fraction();
            let spent = self.domains[d].delta_bytes_total;
            self.ctl.tick_domain(d, now_s, fallback, spent);
            self.maybe_start_ring(d);
        }
        self.sim.schedule_in(epoch, KernelEvent::ControlTick);
    }

    /// An intra-domain workload query arrives at the (implicit) SP,
    /// which routes it against the GS/CL. The client→SP hop was counted
    /// when the query was sent; the forwards and answers are counted
    /// here.
    fn process_local_query(&mut self, template: usize) {
        let prop = &self.reformulated[template].proposition;
        let outcome = self.domains[0].route_local(prop, self.cfg.policy, &self.peers, template);
        self.ledger
            .count(&Message::Query { template }, outcome.visited.len() as u64);
        self.ledger
            .count(&Message::QueryHit { results: 1 }, outcome.answered as u64);
        self.ctl.record_query(0, outcome.answered, outcome.real_fp);
        self.outcomes.push(outcome);
    }

    // ------------------------------------------------------------------
    // The message plane: send / deliver plumbing.
    // ------------------------------------------------------------------

    /// The delivery-event node id of a domain's SP.
    fn sp_node(&self, d: usize) -> NodeId {
        self.domains[d].sp.unwrap_or(IMPLICIT_SP)
    }

    /// Base (propagation) latency of the `a → b` hop: the direct
    /// topology link when one exists, the construction broadcast-tree
    /// latency for partner↔SP hops, the configured default otherwise
    /// (implicit SP, long links, walk partners).
    fn hop_latency(&self, a: NodeId, b: NodeId, lat: &LatencyConfig) -> SimTime {
        if a == IMPLICIT_SP || b == IMPLICIT_SP {
            return lat.default_hop;
        }
        if let Some(net) = &self.net {
            if let Some(l) = net.latency(a, b) {
                return l;
            }
            if let Some(topo) = &self.topo {
                for (p, sp) in [(a, b), (b, a)] {
                    if topo.assignment.get(p.index()).copied().flatten() == Some(sp) {
                        if let Some(t) = topo.join_time(p) {
                            return t;
                        }
                    }
                }
            }
        }
        lat.default_hop
    }

    /// Counts the message in the ledger and hands it to the transport.
    /// Latency mode schedules its delivery at `now + transit + extra`.
    /// Instantaneous mode delivers it inline: the message joins a FIFO
    /// that the outermost send drains before returning, so a delivery
    /// that sends (a push arming a ring, a token hop) runs its follow-ups
    /// iteratively within the same event.
    fn send_msg(&mut self, from: NodeId, to: NodeId, msg: Message, conv: u64, extra: SimTime) {
        self.ledger.count(&msg, 1);
        let Some(lat) = self.lat else {
            self.inline.push_back((from, to, msg, conv));
            if !self.draining {
                self.draining = true;
                while let Some((from, to, msg, conv)) = self.inline.pop_front() {
                    self.dispatch(from, to, msg, conv);
                }
                self.draining = false;
            }
            return;
        };
        let transit = msg.transit_time(self.hop_latency(from, to, &lat), &lat) + extra;
        self.in_flight += 1;
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight);
        let sent_at = self.sim.now();
        self.sim.schedule_in(
            transit,
            KernelEvent::Deliver {
                from,
                to,
                msg,
                conv,
                sent_at,
            },
        );
    }

    /// Sends a freshness push from partner `p` to its domain's SP.
    fn send_push(&mut self, p: NodeId, d: usize, value: u8) {
        let to = self.sp_node(d);
        self.send_msg(p, to, Message::Push { value }, 0, SimTime::ZERO);
    }

    /// Sends a (re)joining partner's `localsum` to its domain's SP,
    /// `extra` late (release transit / failure detection for re-homes).
    /// `conv` is 0 for fire-and-forget sends; rebirth hand-overs pass
    /// their conversation id so arrivals confirm the re-home instead
    /// of re-entering the CL stale.
    fn send_localsum(&mut self, p: NodeId, d: usize, extra: SimTime, conv: u64) {
        let bytes = self.peers[p.index()]
            .as_ref()
            .map(|s| s.data.summary.len())
            .unwrap_or(0);
        let to = self.sp_node(d);
        self.send_msg(p, to, Message::LocalSum { bytes }, conv, extra);
    }

    /// A scheduled (latency-mode) delivery lands: the plane's in-flight
    /// and latency bookkeeping, then the message's effects.
    fn deliver(&mut self, from: NodeId, to: NodeId, msg: Message, conv: u64, sent_at: SimTime) {
        self.in_flight = self.in_flight.saturating_sub(1);
        let latency = self.sim.now().saturating_sub(sent_at);
        self.ledger.count_delivery(msg.class(), latency);
        self.dispatch(from, to, msg, conv);
    }

    /// Dispatches a delivered message to its handler — all protocol
    /// effects happen here, at delivery time, whichever transport
    /// carried it.
    fn dispatch(&mut self, from: NodeId, to: NodeId, msg: Message, conv: u64) {
        match msg {
            Message::Push { value } => self.deliver_push(from, value),
            Message::LocalSum { .. } if conv != 0 && self.rebirth_convs.contains_key(&conv) => {
                self.deliver_rebirth_localsum(conv, from)
            }
            Message::LocalSum { .. } => self.deliver_localsum(from),
            Message::ReconciliationToken { .. } => self.deliver_token(conv, to),
            Message::Query { template } => {
                if self.net.is_none() {
                    // Single-domain mode: the implicit SP processes the
                    // workload query on arrival.
                    self.process_local_query(template);
                } else {
                    self.deliver_query_at_sp(conv, to);
                }
            }
            Message::QueryHit { results } => self.deliver_hit(conv, from, results > 0),
            Message::FloodRequest { ttl } => self.deliver_flood(conv, to, ttl),
            // Construction-time and §4.3 control messages have no
            // delivery-time effect here (re-homing is driven off the
            // `localsum` the released partner sends).
            _ => {}
        }
    }

    /// A freshness push arrives at the SP.
    fn deliver_push(&mut self, from: NodeId, value: u8) {
        let Some(d) = self.domain_of.get(from.index()).copied().flatten() else {
            return;
        };
        let f = if value >= 2 {
            Freshness::Unavailable
        } else {
            Freshness::NeedsRefresh
        };
        if self.domains[d].apply_push(from, f) {
            self.maybe_start_ring(d);
        }
    }

    /// A (re)joining partner's `localsum` arrives at the SP.
    fn deliver_localsum(&mut self, from: NodeId) {
        let Some(d) = self.domain_of.get(from.index()).copied().flatten() else {
            return;
        };
        if self.domains[d].apply_localsum(from) {
            self.maybe_start_ring(d);
        }
    }

    // ------------------------------------------------------------------
    // Reconciliation rings as conversations.
    // ------------------------------------------------------------------

    /// Starts a ring conversation when the domain's *effective* α (read
    /// from the control plane, not `cfg.alpha`) is crossed and none is
    /// running — the kernel's one α-gated decision. The route covers
    /// only the *stale* live members (§4.2.2's pull needs nothing from
    /// fresh ones — their contributions already sit in the SP's
    /// accumulator).
    fn maybe_start_ring(&mut self, d: usize) {
        if self.domains[d].dissolved
            || self.ring_of_domain[d].is_some()
            || !self.domains[d].cl.needs_reconciliation(self.ctl.alpha(d))
        {
            return;
        }
        let route = RingConversation::stale_route(&self.domains[d].cl, |m| self.is_up(m));
        if route.is_empty() {
            // Every stale entry is a departed member: nothing to pull,
            // just expire them and store the rebuilt view at once.
            if let Err(e) =
                self.domains[d].reconcile_from_snapshots(&[], &mut self.peers, &mut self.ledger)
            {
                self.note_error(e);
            }
            return;
        }
        let conv = self.new_conv();
        let mut rc = RingConversation::new(d, route);
        let first = rc.route.pop_front().expect("non-empty route");
        let bytes = rc.token_bytes();
        self.rings.insert(conv, rc);
        self.ring_of_domain[d] = Some(conv);
        let sp = self.sp_node(d);
        self.send_msg(
            sp,
            first,
            Message::ReconciliationToken { bytes },
            conv,
            SimTime::ZERO,
        );
        self.schedule_watchdog(KernelEvent::RingTimeout { conv });
    }

    /// A fresh conversation id.
    fn new_conv(&mut self) -> u64 {
        let conv = self.next_conv;
        self.next_conv += 1;
        conv
    }

    /// Schedules a conversation watchdog on the message plane. Inline
    /// delivery completes every conversation within its event, so it
    /// needs none.
    fn schedule_watchdog(&mut self, ev: KernelEvent) {
        if let Some(lat) = self.lat {
            self.sim.schedule_in(lat.conversation_timeout, ev);
        }
    }

    /// The token arrives at its next hop (or back at the SP).
    fn deliver_token(&mut self, conv: u64, to: NodeId) {
        let Some(rc) = self.rings.get(&conv) else {
            return;
        };
        let d = rc.domain;
        let sp = self.sp_node(d);
        if to == sp {
            self.finish_ring(conv);
            return;
        }
        // The member must still be up to stamp the token; a hop landing
        // on a churned-out peer silently drops it — the SP's watchdog
        // completes the pull with what was gathered.
        let Some(st) = self.peers.get(to.index()).and_then(|s| s.as_ref()) else {
            return;
        };
        if !st.up {
            return;
        }
        let snap = SummarySnapshot::of(to, st);
        let rc = self.rings.get_mut(&conv).expect("checked above");
        rc.gathered.push(snap);
        let next = rc.route.pop_front();
        let bytes = rc.token_bytes();
        let target = next.unwrap_or(sp);
        self.send_msg(
            to,
            target,
            Message::ReconciliationToken { bytes },
            conv,
            SimTime::ZERO,
        );
    }

    /// Completes a ring (token returned, or watchdog): the SP stores
    /// `NewGS` from the gathered snapshots and resets the CL. A ring
    /// that already completed, or was cancelled, is gone: no-op.
    fn finish_ring(&mut self, conv: u64) {
        let Some(rc) = self.rings.remove(&conv) else {
            return;
        };
        let (d, gathered) = (rc.domain, rc.gathered);
        if self.ring_of_domain[d] == Some(conv) {
            self.ring_of_domain[d] = None;
        }
        if !self.domains[d].dissolved {
            if let Err(e) = self.domains[d].reconcile_from_snapshots(
                &gathered,
                &mut self.peers,
                &mut self.ledger,
            ) {
                self.note_error(e);
            }
            // Members the token missed kept their stale flags, so α may
            // re-arm a follow-up ring immediately.
            self.maybe_start_ring(d);
        }
    }

    // ------------------------------------------------------------------
    // Inter-domain lookups as conversations.
    // ------------------------------------------------------------------

    /// Poses an inter-domain lookup on the message plane.
    fn start_lookup(&mut self, origin: NodeId, template: usize) {
        let Some(home) = self.domain_of.get(origin.index()).copied().flatten() else {
            return;
        };
        let results_total = self.true_matches(template).len();
        let need = self.target.need();
        let conv = self.new_conv();
        let lc = LookupConversation::new(origin, template, need, self.sim.now(), results_total);
        self.lookups.insert(conv, lc);
        self.schedule_domain_query(conv, home, origin, SimTime::ZERO);
        self.schedule_watchdog(KernelEvent::LookupTimeout { conv });
    }

    /// Sends this lookup's query to one domain's SP (once per domain).
    fn schedule_domain_query(&mut self, conv: u64, d: usize, from: NodeId, extra: SimTime) {
        let template = {
            let Some(lc) = self.lookups.get_mut(&conv) else {
                return;
            };
            if lc.done || !lc.seen_domains.insert(d) {
                return;
            }
            lc.messages += 1;
            lc.branches += 1;
            lc.template
        };
        let sp = self.sp_node(d);
        self.send_msg(from, sp, Message::Query { template }, conv, extra);
    }

    /// A lookup's query arrives at a domain SP: the SP consults its
    /// GS/CL, forwards to the selected peers (whose answers travel as
    /// separate hit deliveries), floods, and follows long links.
    fn deliver_query_at_sp(&mut self, conv: u64, to: NodeId) {
        let d_opt = self.sp_index.get(&to).copied();
        let Some((template, origin, done)) = self.land_branch(conv) else {
            return;
        };
        let sp_up = self.net.as_ref().map(|n| n.is_up(to)).unwrap_or(false);
        let Some(d) = d_opt.filter(|&d| !done && !self.domains[d].dissolved && sp_up) else {
            // Dissolved domain, departed SP or finished lookup: the
            // branch dies here.
            self.finish_lookup_if_idle(conv);
            return;
        };
        let (answering, stale, msgs) = self.query_domain(d, template);
        // Controller feedback, part 1: peers the summary selected that
        // were already down or drifted at SP time. The answers now sent
        // in flight are judged at *arrival* (`deliver_hit`), so peers
        // that churn out mid-flight feed the controller as stale too —
        // keeping the control signal aligned with the per-outcome
        // stale-answer accounting.
        self.ctl.record_query(d, 0, stale);
        let forwards = msgs - answering.len() as u64;
        {
            let lc = self.lookups.get_mut(&conv).expect("checked above");
            lc.visited_domains += 1;
            lc.messages += forwards;
            lc.stale_answers += stale;
        }
        // Group locality: the answering peers remember they answered
        // this template together.
        for &p in &answering {
            self.caches[p.index()].insert(template, answering.clone());
        }
        // Each answer travels SP → peer → originator; it is
        // re-validated on arrival (the peer may churn out in flight).
        let lat = self.lat.expect("latency mode");
        for &p in &answering {
            let fwd = Message::Query { template }.transit_time(self.hop_latency(to, p, &lat), &lat);
            self.send_branch(conv, p, origin, Message::QueryHit { results: 1 }, fwd);
        }
        // §5.2.2 flooding requests to the answering peers and — in its
        // home domain — the originator.
        let mut flooders = answering;
        if self.domain_of[origin.index()] == Some(d) {
            flooders.push(origin);
        }
        let ttl = self.cfg.flood_ttl;
        for f in flooders {
            self.send_branch(conv, to, f, Message::FloodRequest { ttl }, SimTime::ZERO);
        }
        // Long-range SP links fan the query out.
        let links = self.domains[d].long_links.clone();
        for sp2 in links {
            if let Some(&other) = self.sp_index.get(&sp2) {
                self.schedule_domain_query(conv, other, to, SimTime::ZERO);
            }
        }
        self.finish_lookup_if_idle(conv);
    }

    /// A flood request arrives at a flooder, which forwards outside its
    /// domain with the TTL: cached answers reply to the originator, and
    /// newly discovered domains receive the query.
    fn deliver_flood(&mut self, conv: u64, f: NodeId, ttl: u32) {
        let Some((template, origin, done)) = self.land_branch(conv) else {
            return;
        };
        if done || !self.is_up(f) || self.net.is_none() {
            // A churned-out flooder drops the request.
            self.finish_lookup_if_idle(conv);
            return;
        }
        let reach = self
            .net
            .as_ref()
            .expect("checked above")
            .flood_reach(f, ttl);
        for (reached, _hops, plat) in reach {
            {
                let lc = self.lookups.get_mut(&conv).expect("conv exists");
                lc.messages += 1;
            }
            // "Its neighbors may have cached answers to similar
            // queries": each cached candidate is re-validated when its
            // reply reaches the originator.
            if let Some(hit) = self.caches[reached.index()].lookup(template) {
                let cached = hit.answering.clone();
                self.cache_hits += 1;
                for q in cached {
                    self.send_branch(conv, q, origin, Message::QueryHit { results: 0 }, plat);
                }
            }
            if let Some(other_d) = self.domain_of[reached.index()] {
                self.schedule_domain_query(conv, other_d, reached, plat);
            }
        }
        self.finish_lookup_if_idle(conv);
    }

    /// An answer about peer `q` reaches the originator and is validated
    /// against the world as it is *now* — peers that churned out or
    /// drifted while the answer was in flight do not count, and
    /// summary-selected ones surface as stale answers.
    fn deliver_hit(&mut self, conv: u64, q: NodeId, summary_selected: bool) {
        let Some((template, origin, done)) = self.land_branch(conv) else {
            return;
        };
        if done {
            self.finish_lookup_if_idle(conv);
            return;
        }
        let valid = self.live_match(q, template);
        // Controller feedback, part 2: the summary-selected answer's
        // verdict *as delivered* — a peer that churned out while its
        // answer was in flight counts as stale here, exactly as it does
        // in the lookup's outcome. Attributed to the peer's current
        // domain (gone only if it was orphaned mid-flight).
        if summary_selected {
            if let Some(dq) = self.domain_of.get(q.index()).copied().flatten() {
                self.ctl
                    .record_query(dq, usize::from(valid), usize::from(!valid));
            }
        }
        {
            let lc = self.lookups.get_mut(&conv).expect("checked above");
            if valid {
                lc.answered.insert(q);
                if summary_selected {
                    lc.summary_ok += 1;
                }
            } else if summary_selected {
                lc.stale_answers += 1;
            }
        }
        if valid {
            let answered: Vec<NodeId> = self.lookups[&conv].answered.iter().copied().collect();
            self.caches[origin.index()].insert(template, answered);
        }
        if self.lookups[&conv].satisfied() {
            self.finish_lookup(conv);
        } else {
            self.finish_lookup_if_idle(conv);
        }
    }

    /// A delivery of lookup `conv` lands: one branch fewer in flight.
    /// Returns the lookup's `(template, origin, done)`, or `None` once
    /// the conversation was reaped.
    fn land_branch(&mut self, conv: u64) -> Option<(usize, NodeId, bool)> {
        let lc = self.lookups.get_mut(&conv)?;
        lc.branches = lc.branches.saturating_sub(1);
        Some((lc.template, lc.origin, lc.done))
    }

    /// Sends one message of lookup `conv` that lands as a new branch.
    fn send_branch(&mut self, conv: u64, from: NodeId, to: NodeId, msg: Message, extra: SimTime) {
        if let Some(lc) = self.lookups.get_mut(&conv) {
            lc.branches += 1;
            lc.messages += 1;
        }
        self.send_msg(from, to, msg, conv, extra);
    }

    /// Completes the lookup when no branch is left in flight.
    fn finish_lookup_if_idle(&mut self, conv: u64) {
        if self
            .lookups
            .get(&conv)
            .is_some_and(|lc| !lc.done && lc.branches == 0)
        {
            self.finish_lookup(conv);
        }
    }

    /// Records the lookup's outcome (target met, branches drained, or
    /// watchdog) at the current virtual time.
    fn finish_lookup(&mut self, conv: u64) {
        let now = self.sim.now();
        let Some(lc) = self.lookups.get_mut(&conv) else {
            return;
        };
        if lc.done {
            return;
        }
        lc.done = true;
        let started = lc.started;
        let out = lc.outcome(now);
        self.inter_outcomes.push((started, out));
    }

    // ------------------------------------------------------------------
    // Summary-peer churn (§4.3).
    // ------------------------------------------------------------------

    /// A summary peer's session ends: §4.3's release / detection runs
    /// on the physical network and the domain dissolves. Without
    /// [`crate::config::SimConfig::rebirth`] the departure is terminal
    /// ([`handle_sp_departure`]): every re-homed partner ships its
    /// `localsum` to its new SP — over the message plane when latency
    /// is enabled. With it the members are not scattered: the domain
    /// retains its member descriptions and a [`KernelEvent::SpElection`]
    /// is scheduled to re-elect a replacement SP from the orphaned
    /// membership.
    fn handle_sp_departure_event(&mut self, sp: NodeId) {
        let Some(&d) = self.sp_index.get(&sp) else {
            return;
        };
        if self.domains[d].dissolved {
            return;
        }
        let graceful = !self
            .sim
            .rng()
            .gen_bool(self.cfg.failure_fraction.clamp(0.0, 1.0));
        // Everyone whose home is this domain re-homes: the CL members
        // *and* peers whose re-home `localsum` is still in flight (in
        // the assignment map but not yet in the CL) — otherwise a
        // second SP departure would strand them pointing at a
        // dissolved domain forever.
        let mut members = self.topo.as_ref().expect("networked kernel").members(sp);
        for &m in &self.domains[d].members {
            if !members.contains(&m) {
                members.push(m);
            }
        }
        // Cancel the domain's in-flight ring, if any: late token
        // deliveries and its watchdog find nothing and no-op.
        if let Some(conv) = self.ring_of_domain[d].take() {
            self.rings.remove(&conv);
        }
        // A reborn domain's SP can itself depart while the hand-over
        // confirmations are still in flight: cancel that conversation.
        for rc in self.rebirth_convs.values_mut() {
            if rc.domain == d {
                rc.done = true;
            }
        }
        // A rebirth is seeded from the member descriptions and CL flags:
        // move (not clone) them out before dissolve() discards them.
        let retained = self.cfg.rebirth.then(|| self.retain_descriptions(d));
        {
            let (Some(net), Some(topo)) = (self.net.as_mut(), self.topo.as_mut()) else {
                return;
            };
            if retained.is_some() {
                dissolve_domain(net, topo, sp, graceful);
            } else {
                handle_sp_departure(net, topo, sp, graceful);
            }
        }
        // Mirror the §4.3 control traffic in the ledger (the physical
        // counters live on the network).
        if graceful {
            self.ledger.count(&Message::Release, members.len() as u64);
        } else {
            self.ledger
                .count(&Message::Push { value: 1 }, members.len() as u64);
        }
        self.sp_index.remove(&sp);
        self.domains[d].dissolve();
        // The control plane follows the domain's lifecycle: the slot's
        // controller freezes at its final α (its trajectory ends here);
        // re-homed partners feed their new domains' controllers instead.
        self.ctl.on_dissolve(d);
        for dom in &mut self.domains {
            dom.long_links.retain(|&l| l != sp);
        }
        match retained {
            Some((acc, flags)) => {
                let seed = RebirthSeed {
                    members,
                    acc,
                    flags,
                    stalled: false,
                };
                self.await_rebirth(d, sp, graceful, seed);
            }
            None => self.rehome_members(graceful, members),
        }
        self.record_domain_count();
    }

    /// What a rebirth retains of domain `d` before it dissolves: the
    /// accumulator of member descriptions and the CL freshness flags.
    fn retain_descriptions(&mut self, d: usize) -> (GsAccumulator, BTreeMap<NodeId, Freshness>) {
        let acc = std::mem::replace(&mut self.domains[d].acc, empty_accumulator());
        let cl = &self.domains[d].cl;
        let flags = cl
            .partners()
            .map(|p| (p, cl.freshness(p).unwrap_or(Freshness::NeedsRefresh)))
            .collect();
        (acc, flags)
    }

    /// The terminal departure's re-homes: graceful partners act on the
    /// release; failed-SP partners discover the failure on their next
    /// (timed-out) push.
    fn rehome_members(&mut self, graceful: bool, members: Vec<NodeId>) {
        let delay = match self.lat {
            Some(lat) if !graceful => lat.conversation_timeout,
            _ => SimTime::ZERO,
        };
        for m in members {
            let new_sp = self.topo.as_ref().expect("networked kernel").assignment[m.index()];
            match new_sp {
                Some(nsp) => {
                    let nd = self.sp_index[&nsp];
                    self.domain_of[m.index()] = Some(nd);
                    self.send_localsum(m, nd, delay, 0);
                }
                None => {
                    self.domain_of[m.index()] = None;
                }
            }
        }
    }

    /// The rebirth flavour of a §4.3 dissolution: instead of walking the
    /// orphans to surviving domains the kernel keeps them unassigned
    /// with their [`RebirthSeed`], and schedules a
    /// [`KernelEvent::SpElection`] — after the release transit when the
    /// departure was graceful, or after the failure-detection timeout
    /// when it was silent.
    fn await_rebirth(&mut self, d: usize, sp: NodeId, graceful: bool, seed: RebirthSeed) {
        for &m in &seed.members {
            self.domain_of[m.index()] = None;
        }
        self.pending_rebirths.insert(d, seed);
        // A promoted SP's session is over, but its node is not gone for
        // good: it re-enters the partner pool (down, with a fresh
        // database) and its next scheduled session join revives it —
        // otherwise every rebirth would permanently drain one peer.
        if self.promoted_sps.remove(&sp) {
            if let Ok(data) = generate_peer_data(
                self.sim.rng(),
                sp.0,
                &self.bk,
                &self.templates,
                self.cfg.match_fraction,
                self.cfg.records_per_peer,
            ) {
                let mut st = PeerState::new(data);
                st.up = false;
                st.merged_bits = 0;
                st.drift_scheduled = false;
                self.peers[sp.index()] = Some(st);
            }
        }
        // Graceful: the release names the hand-over, so the election
        // starts one hop later. Failed: partners first discover the
        // failure (their next push times out).
        let delay = match self.lat {
            Some(lat) if graceful => lat.default_hop,
            Some(lat) => lat.conversation_timeout,
            None => SimTime::ZERO,
        };
        self.sim
            .schedule_in(delay, KernelEvent::SpElection { domain: d });
    }

    /// Rebirth, step 1: elect the replacement SP among the dissolved
    /// domain's live, still-unassigned members — latency-aware on the
    /// message plane (minimum expected partner round-trip on the
    /// candidate's broadcast tree), by degree order otherwise. With no
    /// live candidate the rebirth is abandoned: the domain stays
    /// dissolved and its members walk to surviving domains as they
    /// rejoin.
    fn handle_sp_election(&mut self, d: usize) {
        let Some(seed) = self.pending_rebirths.get(&d) else {
            return;
        };
        // Members that already walked into another domain during the
        // orphan window are out: stealing them back would leave two
        // cooperation lists claiming the same partner.
        let live: Vec<NodeId> = seed
            .members
            .iter()
            .copied()
            .filter(|&m| self.is_up(m) && self.domain_of[m.index()].is_none())
            .collect();
        let policy = match self.lat {
            Some(lat) => ElectionPolicy::LatencyAware {
                ttl: self.cfg.sumpeer_ttl,
                default_hop: lat.default_hop,
            },
            None => ElectionPolicy::Degree,
        };
        let winner = {
            let net = self.net.as_ref().expect("networked kernel");
            elect_replacement_sp(net, &live, &live, policy)
        };
        let Some(ns) = winner else {
            // Nobody is up to take over right now. The seed stays
            // pending and is marked stalled: the next former member to
            // rejoin re-triggers the election (event-driven retry — no
            // polling), so a domain whose membership was momentarily
            // all-down is not lost forever.
            if let Some(seed) = self.pending_rebirths.get_mut(&d) {
                seed.stalled = true;
            }
            return;
        };
        if let Some(seed) = self.pending_rebirths.get_mut(&d) {
            seed.stalled = false;
        }
        // Election traffic: one candidacy/acknowledgement exchange per
        // live member (the §4.1 `find` vocabulary, construction class).
        self.ledger.count(&Message::Find, live.len() as u64);
        let delay = self.lat.map(|l| l.default_hop).unwrap_or(SimTime::ZERO);
        self.sim
            .schedule_in(delay, KernelEvent::SpTakeover { domain: d, sp: ns });
    }

    /// Rebirth, step 2: the election winner takes over. The winner is
    /// promoted out of the partner role (its database leaves the
    /// workload, like every construction-time SP), announces itself
    /// with a `sumpeer` broadcast whose tree latencies become the
    /// re-homed partners' distances, and the domain slot revives
    /// seeded from the retained descriptions — members whose push
    /// invariant survived the hand-over re-enter `Fresh`, everyone
    /// else stale, so the first α-gated pull is a delta. The members'
    /// `localsum` confirmations run as a [`RebirthConversation`]
    /// (with a watchdog on the message plane; inline delivery
    /// completes it before the takeover event ends).
    fn handle_sp_takeover(&mut self, d: usize, ns: NodeId) {
        let Some(seed) = self.pending_rebirths.remove(&d) else {
            return;
        };
        // The winner may have churned out (or walked into another
        // domain) between election and takeover: re-run the election
        // over the remaining candidates.
        if !self.is_up(ns) || self.domain_of[ns.index()].is_some() {
            self.pending_rebirths.insert(d, seed);
            self.handle_sp_election(d);
            return;
        }
        let now_s = self.sim.now().as_secs_f64();
        // Promotion: the newborn SP retires from the partner role
        // (until its own departure returns the node to the pool).
        self.peers[ns.index()] = None;
        self.domain_of[ns.index()] = None;
        self.promoted_sps.insert(ns);
        let tree_dist = {
            let (net, topo) = (
                self.net.as_mut().expect("networked kernel"),
                self.topo.as_mut().expect("networked kernel"),
            );
            rebirth_broadcast(net, topo, ns, self.cfg.sumpeer_ttl)
        };
        let live: Vec<NodeId> = seed
            .members
            .iter()
            .copied()
            .filter(|&m| m != ns && self.is_up(m) && self.domain_of[m.index()].is_none())
            .collect();
        let seeded: Vec<(NodeId, Freshness)> = live
            .iter()
            .map(|&m| {
                let old = seed
                    .flags
                    .get(&m)
                    .copied()
                    .unwrap_or(Freshness::NeedsRefresh);
                let dirty = self.peers[m.index()].as_ref().is_some_and(|s| s.dirty);
                // A member whose summary regenerated while its push had
                // nowhere to land must not be seeded fresh.
                let f = if dirty && !old.as_stale_bit() {
                    Freshness::NeedsRefresh
                } else {
                    old
                };
                (m, f)
            })
            .collect();
        self.domains[d].revive(ns, seeded, seed.acc);
        self.sp_index.insert(ns, d);
        self.ctl
            .on_rebirth(d, now_s, self.domains[d].delta_bytes_total);
        {
            let topo = self.topo.as_mut().expect("networked kernel");
            for &m in &live {
                topo.assignment[m.index()] = Some(ns);
                topo.distance[m.index()] = tree_dist[m.index()].unwrap_or(u64::MAX - 1);
                self.domain_of[m.index()] = Some(d);
            }
        }
        // Long-range links for the newborn SP, sampled from the current
        // SP roster like construction's.
        let k = self.cfg.interdomain_k.round() as usize;
        let roster: Vec<NodeId> = self.sp_index.keys().copied().collect();
        self.domains[d].long_links = sample_long_links(ns, &roster, k, self.sim.rng());
        // The newborn SP's own session will end too — that is what
        // keeps the domain population stationary instead of saved-once.
        if let Some(lifetimes) = self.cfg.sp_lifetime {
            let dt = lifetimes.sample(self.sim.rng());
            self.sim
                .schedule_in(dt, KernelEvent::SpDeparture { sp: ns });
        }
        self.rebirths += 1;
        self.record_domain_count();
        // Re-home confirmations: every live member ships its `localsum`
        // to the newborn SP; the last arrival may arm the first pull.
        if !live.is_empty() {
            let conv = self.new_conv();
            self.rebirth_convs.insert(
                conv,
                RebirthConversation {
                    domain: d,
                    outstanding: live.len() as u64,
                    done: false,
                },
            );
            for &m in &live {
                self.send_localsum(m, d, SimTime::ZERO, conv);
            }
            self.schedule_watchdog(KernelEvent::RebirthTimeout { conv });
        }
    }

    /// A rebirth hand-over `localsum` arrives at the newborn SP. The
    /// member was seeded at takeover; the arrival re-validates it — a
    /// member that churned out while its confirmation was in flight is
    /// flagged `Unavailable` so the next pull expires it.
    fn deliver_rebirth_localsum(&mut self, conv: u64, from: NodeId) {
        let Some(rc) = self.rebirth_convs.get_mut(&conv) else {
            return;
        };
        if rc.done {
            return;
        }
        rc.outstanding = rc.outstanding.saturating_sub(1);
        let d = rc.domain;
        let outstanding = rc.outstanding;
        if !self.is_up(from) && !self.domains[d].dissolved {
            self.domains[d]
                .cl
                .set_freshness(from, Freshness::Unavailable);
        }
        if outstanding == 0 {
            self.finish_rebirth(conv);
        }
    }

    /// Completes a rebirth hand-over (all confirmations in, or
    /// watchdog): the reborn domain's seeded staleness may arm its
    /// first — delta — pull immediately.
    fn finish_rebirth(&mut self, conv: u64) {
        let Some(rc) = self.rebirth_convs.get_mut(&conv) else {
            return;
        };
        if rc.done {
            return;
        }
        rc.done = true;
        let d = rc.domain;
        self.rebirth_convs.remove(&conv);
        if !self.domains[d].dissolved {
            self.maybe_start_ring(d);
        }
    }

    /// Samples the live-domain count into the trajectory
    /// (`BENCH_rebirth.json`'s stationarity evidence). Only meaningful
    /// under SP churn; a no-op otherwise so existing reports stay
    /// unchanged.
    fn record_domain_count(&mut self) {
        if self.cfg.sp_lifetime.is_none() || self.net.is_none() {
            return;
        }
        let live = self.live_domains();
        self.domain_trajectory.push((self.sim.now(), live));
    }

    /// Walks an orphaned rejoiner (§4.1's `find`) to the nearest
    /// surviving partner or SP and adopts that domain. Returns the new
    /// domain index, or `None` when the walk found nobody.
    fn rehome_orphan(&mut self, p: NodeId) -> Option<usize> {
        let sps: Vec<NodeId> = self.sp_index.keys().copied().collect();
        let (path, found) = {
            let net = self.net.as_ref()?;
            let topo = self.topo.as_ref()?;
            let max_hops = (net.len() as u32).min(64);
            net.selective_walk(p, max_hops, |v| {
                sps.contains(&v) || topo.assignment[v.index()].is_some()
            })
        };
        self.ledger.count(&Message::Find, path.len() as u64);
        if !found {
            return None;
        }
        let reached = *path.last().expect("found implies non-empty path");
        let sp = if sps.contains(&reached) {
            reached
        } else {
            self.topo.as_ref()?.assignment[reached.index()].expect("partner has an SP")
        };
        // Adopt the domain only if its SP is actually alive — never
        // leave the assignment pointing at a departed one.
        let d = *self.sp_index.get(&sp)?;
        let topo = self.topo.as_mut()?;
        topo.assignment[p.index()] = Some(sp);
        topo.distance[p.index()] = u64::MAX - 1;
        self.domain_of[p.index()] = Some(d);
        Some(d)
    }

    /// Completed SP rebirths so far
    /// ([`crate::config::SimConfig::rebirth`]).
    pub fn rebirths(&self) -> u64 {
        self.rebirths
    }

    /// Domains currently live (not dissolved).
    pub fn live_domains(&self) -> usize {
        self.domains.iter().filter(|d| !d.dissolved).count()
    }

    /// Debug / verification probe: checks every live domain's
    /// incrementally maintained GS against its from-scratch
    /// [`DomainCore::full_rebuild_oracle`], byte-for-byte. After
    /// [`SimKernel::reconcile_all`] the two must agree in both delivery
    /// modes — including for domains reborn from retained descriptions
    /// (the rebirth property tests and the golden table rely on this
    /// probe).
    pub fn live_gs_matches_oracle(&self) -> Result<bool, P2pError> {
        for dom in &self.domains {
            if dom.dissolved {
                continue;
            }
            let oracle = dom.full_rebuild_oracle(&self.peers)?;
            if wire::encode(&dom.gs) != wire::encode(&oracle) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Messages currently in flight on the message plane.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// High-water mark of in-flight messages over the run.
    pub fn peak_in_flight(&self) -> u64 {
        self.peak_in_flight
    }

    /// Runs every scheduled event to the horizon.
    pub fn run_to_horizon(&mut self) {
        while let Some((_, ev)) = self.sim.next_event() {
            self.handle(ev);
        }
        if let (n, Some(e)) = self.error_status() {
            eprintln!("warning: {n} domain-state error(s) swallowed during the run; first: {e}");
        }
    }

    /// Processes events due at or before `t`, then advances the clock to
    /// `t` — the probe-in-the-middle entry the dynamic experiments use.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some((_, ev)) = self.sim.next_event_before(t) {
            self.handle(ev);
        }
        self.sim.fast_forward(t);
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Ground truth: all live peers currently matching `template`.
    pub fn true_matches(&self, template: usize) -> Vec<NodeId> {
        (0..self.peers.len() as u32)
            .map(NodeId)
            .filter(|&p| self.live_match(p, template))
            .collect()
    }

    /// True when `p` holds partner state and is up.
    fn is_up(&self, p: NodeId) -> bool {
        self.peers
            .get(p.index())
            .and_then(Option::as_ref)
            .is_some_and(|s| s.up)
    }

    /// True when `p` is up and its data currently matches `template`:
    /// a valid answer.
    fn live_match(&self, p: NodeId, template: usize) -> bool {
        self.peers
            .get(p.index())
            .and_then(Option::as_ref)
            .is_some_and(|s| s.up && s.data.matches(template))
    }

    /// Cache hits observed during inter-domain flooding so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Number of query templates.
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// Live partners with a home domain: the peers that can pose a
    /// lookup now. At t = 0 of a networked kernel these are exactly the
    /// peers construction assigned.
    pub fn live_origins(&self) -> Vec<NodeId> {
        (0..self.cfg.n_peers as u32)
            .map(NodeId)
            .filter(|&p| self.is_up(p) && self.domain_of[p.index()].is_some())
            .collect()
    }

    /// Queries one domain's *live* GS/CL under the configured routing
    /// policy: (answering peers, stale answers, messages).
    fn query_domain(&self, d: usize, template: usize) -> (Vec<NodeId>, usize, u64) {
        let dom = &self.domains[d];
        let prop = &self.reformulated[template].proposition;
        // Only current partners are contacted: the CL is the membership
        // authority even when the GS still carries departed peers' cells.
        let pq: Vec<NodeId> = relevant_sources(&dom.gs, prop)
            .into_iter()
            .map(|s| NodeId(s.0))
            .filter(|p| dom.cl.contains(*p))
            .collect();
        let visited = self.cfg.policy.visits(pq, &dom.cl);
        let mut answering = Vec::new();
        let mut stale = 0usize;
        for p in &visited {
            if self.live_match(*p, template) {
                answering.push(*p);
            } else {
                stale += 1;
            }
        }
        // 1 query to the SP happens at the caller; here: forwards + hits.
        let messages = visited.len() as u64 + answering.len() as u64;
        (answering, stale, messages)
    }

    /// Routes a query posed at `origin` through the network (§5.2.2),
    /// against the *current* per-domain GS/CL state — under churn this is
    /// where stale summaries become measurable network-wide.
    ///
    /// When a domain answers fewer results than `target` needs, the
    /// query spreads by *group locality*: the answering peers and the
    /// originator forward it outside their domain with a limited TTL
    /// (reached peers may hold cached answers), and the SP follows its
    /// long-range links to other SPs. Routing stops once enough results
    /// are gathered (partial lookup) or no unvisited domain is left
    /// (total lookup).
    pub fn route_live(
        &mut self,
        origin: NodeId,
        template: usize,
        target: LookupTarget,
    ) -> MultiDomainOutcome {
        let results_total = self.true_matches(template).len();
        let need = target.need();
        let Some(home) = self.domain_of.get(origin.index()).copied().flatten() else {
            return MultiDomainOutcome::empty(results_total);
        };
        // A down origin cannot pose a query (the scheduled InterQuery
        // path skips it for the same reason); probes get the same rule.
        if !self.is_up(origin) {
            return MultiDomainOutcome::empty(results_total);
        }

        let mut messages: u64 = 0;
        let mut stale_answers = 0usize;
        let mut summary_results = 0usize;
        let mut answered: BTreeSet<NodeId> = BTreeSet::new();
        let mut visited_domains: BTreeSet<usize> = BTreeSet::new();
        // Domains to process next: discovered through flooding/long links.
        let mut frontier: VecDeque<usize> = VecDeque::new();
        frontier.push_back(home);

        'domains: while let Some(d) = frontier.pop_front() {
            if !visited_domains.insert(d) {
                continue;
            }
            messages += 1; // the query message to this domain's SP
            let (answering, stale, msgs) = self.query_domain(d, template);
            self.ctl.record_query(d, answering.len(), stale);
            messages += msgs;
            stale_answers += stale;
            summary_results += answering.len();
            answered.extend(answering.iter().copied());
            // Group locality (§5.2.2): the originator and the answering
            // peers remember who answered this template. The originator
            // accumulates everyone seen so far — a later domain with no
            // answerers must not wipe the entry it already earned.
            if !answered.is_empty() {
                self.caches[origin.index()].insert(template, answered.iter().copied().collect());
            }
            for &p in &answering {
                self.caches[p.index()].insert(template, answering.clone());
            }
            if answered.len() >= need {
                break;
            }

            // §5.2.2: flood requests to the answering peers and the
            // originator, who forward the query outside their domain with
            // a limited TTL; plus the SP's long-range links.
            let mut flooders: Vec<NodeId> = answering;
            if self.domain_of[origin.index()] == Some(d) {
                flooders.push(origin);
            }
            messages += flooders.len() as u64;
            for f in flooders {
                let reach = self
                    .net
                    .as_ref()
                    .expect("networked kernel")
                    .flood_reach(f, self.cfg.flood_ttl);
                for (reached, _, _) in reach {
                    messages += 1; // each forward is a message
                                   // A reached neighbor with a cached answer for this
                                   // template replies immediately — "its neighbors may
                                   // have cached answers to similar queries".
                    if let Some(hit) = self.caches[reached.index()].lookup(template) {
                        let cached = hit.answering.clone();
                        self.cache_hits += 1;
                        messages += 1; // the cache-holder's reply
                        for q in cached {
                            // Validate against ground truth: stale cache
                            // entries (peer gone or drifted) add nothing.
                            if self.live_match(q, template) {
                                answered.insert(q);
                            }
                        }
                        if answered.len() >= need {
                            break 'domains;
                        }
                    }
                    if let Some(other) = self.domain_of[reached.index()] {
                        if !visited_domains.contains(&other) {
                            frontier.push_back(other);
                        }
                    }
                }
            }
            let links = self.domains[d].long_links.clone();
            for sp in links {
                messages += 1;
                // A link may point at an SP that departed since (§4.3).
                if let Some(&other) = self.sp_index.get(&sp) {
                    if !visited_domains.contains(&other) {
                        frontier.push_back(other);
                    }
                }
            }
        }

        MultiDomainOutcome {
            results: answered.len(),
            results_total,
            domains_visited: visited_domains.len(),
            messages,
            satisfied: answered.len() >= need.min(results_total),
            stale_answers,
            summary_results,
            time_to_answer_s: 0.0,
        }
    }

    /// Builds the single-domain report after a completed run.
    pub(crate) fn single_report(&self) -> DomainReport {
        let dom = &self.domains[0];
        let (approx_live, approx_with_departed) = self.approximate_coverage();
        let mut report = DomainReport::from_run(
            &self.cfg,
            &self.outcomes,
            self.ledger.counters(),
            self.ledger.byte_counters(),
            dom.reconciliations,
            dom.gs_bytes_last,
            dom.gs.leaf_count(),
            dom.gs.live_node_count(),
        );
        report.approx_weight_live = approx_live;
        report.approx_weight_with_departed = approx_with_departed;
        let work = self.ledger.reconcile_work();
        report.reconcile_merged_members = work.merged;
        report.reconcile_skipped_members = work.skipped;
        report.reconcile_delta_bytes = work.delta_bytes;
        report.final_alpha = self.ctl.alpha(0);
        report.alpha_trajectory = self.ctl.trajectory(0).to_vec();
        report
    }

    /// §4.3's two alternatives for departed peers' descriptions, made
    /// measurable: the approximate-answer weight per template from the
    /// current GS (alternative 2 — departed data expired, the paper's
    /// and this simulation's routing choice) versus a GS that *keeps*
    /// the last known summaries of down peers (alternative 1 — richer
    /// approximate answers at the price of describing unavailable data).
    fn approximate_coverage(&self) -> (Vec<f64>, Vec<f64>) {
        let gs = &self.domains[0].gs;
        let weight_of = |gs: &saintetiq::hierarchy::SummaryTree| -> Vec<f64> {
            self.reformulated
                .iter()
                .map(|sq| {
                    saintetiq::query::approx::approximate_answer(gs, sq)
                        .iter()
                        .map(|a| a.weight)
                        .sum()
                })
                .collect()
        };
        let live = weight_of(gs);
        let mut with_departed = gs.clone();
        let ecfg = EngineConfig::default();
        for peer in self.peers.iter().flatten() {
            if !peer.up && peer.merged_bits == 0 {
                // Down and absent from the GS: its last summary is the
                // description alternative 1 would have retained. A
                // summary that fails to decode (impossible for locally
                // encoded data) simply contributes nothing.
                let Ok(tree) = wire::decode(&peer.data.summary) else {
                    continue;
                };
                if saintetiq::merge::merge_into(&mut with_departed, &tree, &ecfg).is_err() {
                    continue;
                }
            }
        }
        (live, weight_of(&with_departed))
    }

    /// Builds the multi-domain report after a completed dynamic run.
    pub(crate) fn multi_report(&self) -> MultiDomainReport {
        let reconciliations = self.domains.iter().map(|d| d.reconciliations).sum();
        // Lookups posed close to the horizon never saw their remaining
        // deliveries (the simulator drops events past the horizon);
        // record them as cut off at the horizon instead of silently
        // discarding the tail — otherwise slow-link sweeps would
        // compare survivorship-biased query populations.
        let mut outcomes = self.inter_outcomes.clone();
        for lc in self.lookups.values() {
            if !lc.done {
                outcomes.push((lc.started, lc.outcome(self.cfg.horizon)));
            }
        }
        outcomes.sort_by_key(|o| o.0);
        let mut report = MultiDomainReport::from_run(
            &self.cfg,
            self.live_domains(),
            &outcomes,
            &self.ledger,
            reconciliations,
            self.cache_hits,
            self.peak_in_flight,
        );
        report.final_alphas = self.ctl.final_alphas();
        report.mean_final_alpha = if report.final_alphas.is_empty() {
            self.cfg.alpha
        } else {
            report.final_alphas.iter().sum::<f64>() / report.final_alphas.len() as f64
        };
        report.alpha_trajectories = (0..self.domains.len())
            .map(|d| self.ctl.trajectory(d).to_vec())
            .collect();
        report.rebirths = self.rebirths;
        report.domain_count_trajectory = self
            .domain_trajectory
            .iter()
            .map(|&(t, n)| (t.as_secs_f64(), n))
            .collect();
        report.initial_domains = self
            .domain_trajectory
            .first()
            .map(|&(_, n)| n)
            .unwrap_or(report.n_domains);
        report.min_live_domains = self
            .domain_trajectory
            .iter()
            .map(|&(_, n)| n)
            .min()
            .unwrap_or(report.n_domains);
        report
    }

    /// Forces a reconciliation round in every domain (used by probes and
    /// SP-initiated maintenance scenarios).
    pub fn reconcile_all(&mut self) {
        for d in 0..self.domains.len() {
            let result = {
                let (domains, peers, ledger) =
                    (&mut self.domains, &mut self.peers, &mut self.ledger);
                domains[d].reconcile(peers, ledger)
            };
            if let Err(e) = result {
                self.note_error(e);
            }
        }
    }

    /// Records a domain-state error the event loop swallowed. These are
    /// impossible for configurations that built successfully; counting
    /// them (instead of panicking mid-run) keeps release simulations
    /// total, while debug builds — the tests and CI — still fail loudly
    /// so a corrupted domain can never silently feed the reports.
    fn note_error(&mut self, e: P2pError) {
        debug_assert!(false, "domain-state error swallowed mid-run: {e}");
        self.domain_errors += 1;
        if self.first_error.is_none() {
            self.first_error = Some(e);
        }
    }

    /// Number of domain-state errors swallowed so far, and the first
    /// one — `(0, None)` on every healthy run.
    pub fn error_status(&self) -> (u64, Option<&P2pError>) {
        (self.domain_errors, self.first_error.as_ref())
    }

    /// Mean stale fraction across domains' cooperation lists.
    pub fn mean_stale_fraction(&self) -> f64 {
        if self.domains.is_empty() {
            return 0.0;
        }
        self.domains
            .iter()
            .map(|d| d.cl.stale_fraction())
            .sum::<f64>()
            / self.domains.len() as f64
    }

    /// Fraction of assigned peers currently live.
    pub fn live_fraction(&self) -> f64 {
        let assigned = self.peers.iter().flatten().count();
        if assigned == 0 {
            return 0.0;
        }
        let live = self.peers.iter().flatten().filter(|s| s.up).count();
        live as f64 / assigned as f64
    }
}

/// The dynamic multi-domain simulation: churn, drift and reconciliation
/// interleaved with inter-domain lookups — the network-scale
/// experiment. It builds a [`SimKernel::networked`] kernel with its full
/// dynamic event load; probes that need more of the kernel build one
/// directly.
pub struct MultiDomainSim {
    kernel: SimKernel,
}

impl MultiDomainSim {
    /// Builds the system and schedules its full dynamic event load.
    pub fn new(
        cfg: SimConfig,
        domain_target: usize,
        target: LookupTarget,
    ) -> Result<Self, P2pError> {
        Ok(Self {
            kernel: SimKernel::networked(cfg, domain_target, Some(target))?,
        })
    }

    /// Runs to the horizon and reports.
    pub fn run(mut self) -> MultiDomainReport {
        self.kernel.run_to_horizon();
        self.kernel.multi_report()
    }

    /// Processes events up to virtual time `t`.
    pub fn advance_to(&mut self, t: SimTime) {
        self.kernel.run_until(t);
    }

    /// Routes one lookup right now, against the current (possibly stale)
    /// per-domain summaries.
    pub fn route_now(
        &mut self,
        origin: NodeId,
        template: usize,
        target: LookupTarget,
    ) -> MultiDomainOutcome {
        self.kernel.route_live(origin, template, target)
    }

    /// Live assigned partners (candidate query origins).
    pub fn live_origins(&self) -> Vec<NodeId> {
        self.kernel.live_origins()
    }

    /// Number of query templates.
    pub fn template_count(&self) -> usize {
        self.kernel.template_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, seed: u64) -> SimConfig {
        let mut c = SimConfig::paper_defaults(n, 0.3);
        c.horizon = SimTime::from_hours(4);
        c.query_count = 30;
        c.records_per_peer = 10;
        c.seed = seed;
        c
    }

    /// The static view: a networked kernel frozen at t = 0
    /// (construction and fresh global summaries, no dynamics).
    fn static_kernel(n: usize, seed: u64, domain_target: usize) -> SimKernel {
        SimKernel::networked(cfg(n, seed), domain_target, None).unwrap()
    }

    fn topo(k: &SimKernel) -> &Domains {
        k.topo.as_ref().expect("networked kernel")
    }

    #[test]
    fn single_domain_kernel_matches_domain_sim_shape() {
        let mut k = SimKernel::single_domain(cfg(24, 1)).unwrap();
        k.run_to_horizon();
        assert_eq!(k.error_status(), (0, None), "healthy run swallows nothing");
        let report = k.single_report();
        assert_eq!(report.queries, 30);
        assert!(report.total_messages() > 0);
    }

    #[test]
    fn networked_static_build_has_live_domains() {
        let k = SimKernel::networked(cfg(200, 2), 30, None).unwrap();
        assert!(k.domains.len() >= 4);
        for dom in &k.domains {
            assert_eq!(dom.cl.len(), dom.members.len());
            assert_eq!(dom.cl.stale_fraction(), 0.0);
        }
        assert_eq!(k.live_fraction(), 1.0);
    }

    #[test]
    fn long_links_are_distinct_and_filled() {
        let k = SimKernel::networked(cfg(300, 3), 30, None).unwrap();
        let k_target = k.cfg.interdomain_k.round() as usize;
        let sp_count = k.domains.len();
        for dom in &k.domains {
            let links = &dom.long_links;
            let mut dedup = links.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), links.len(), "no duplicate links");
            assert!(!links.contains(&dom.sp.unwrap()), "no self-links");
            assert_eq!(
                links.len(),
                k_target.min(sp_count - 1),
                "k links even on small SP sets"
            );
        }
    }

    #[test]
    fn dynamic_run_produces_outcomes_under_churn() {
        let report = MultiDomainSim::new(cfg(150, 4), 25, LookupTarget::Total)
            .unwrap()
            .run();
        assert!(report.queries > 0, "live origins answered");
        assert!(report.mean_recall > 0.0);
        assert!(report.mean_recall <= 1.0 + 1e-12);
        assert!(
            report.push_messages > 0,
            "drift and leaves push under churn"
        );
    }

    #[test]
    fn probe_reconcile_restores_freshness() {
        let mut k = SimKernel::networked(cfg(120, 5), 20, Some(LookupTarget::Total)).unwrap();
        k.run_until(SimTime::from_hours(2));
        k.reconcile_all();
        assert_eq!(k.mean_stale_fraction(), 0.0);
    }

    #[test]
    fn down_origin_probe_yields_empty_outcome() {
        let mut k = SimKernel::networked(cfg(150, 7), 25, Some(LookupTarget::Total)).unwrap();
        k.run_until(SimTime::from_hours(2));
        let live = k.live_origins();
        let down = topo(&k)
            .assignment
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_some())
            .map(|(i, _)| NodeId(i as u32))
            .find(|p| !live.contains(p));
        let down = down.expect("two hours of churn took someone down");
        let out = k.route_live(down, 0, LookupTarget::Total);
        assert_eq!(out.messages, 0, "nobody is there to ask");
        assert!(!out.satisfied);
    }

    #[test]
    fn latency_mode_records_positive_offsets_per_lookup() {
        use crate::config::{DeliveryMode, LatencyConfig};
        let mut c = cfg(120, 8);
        c.delivery = DeliveryMode::Latency(LatencyConfig::wan_default());
        let mut k = SimKernel::networked(c, 20, Some(LookupTarget::Total)).unwrap();
        k.run_to_horizon();
        assert_eq!(k.error_status(), (0, None), "healthy run swallows nothing");
        assert!(!k.inter_outcomes.is_empty(), "lookups completed");
        for (_, out) in &k.inter_outcomes {
            assert!(
                out.time_to_answer_s > 0.0,
                "every lookup takes virtual time: {out:?}"
            );
        }
        assert!(k.peak_in_flight() > 0);
        assert!(
            k.in_flight() <= k.peak_in_flight(),
            "deliveries dropped at the horizon stay bounded by the peak"
        );
    }

    #[test]
    fn latency_mode_ring_conversations_reconcile() {
        use crate::config::{DeliveryMode, LatencyConfig};
        let mut c = cfg(24, 9);
        c.delivery = DeliveryMode::Latency(LatencyConfig::wan_default());
        let mut k = SimKernel::single_domain(c).unwrap();
        k.run_to_horizon();
        assert!(k.domains[0].reconciliations > 0, "token rings completed");
        let report = k.single_report();
        assert_eq!(report.queries, 30, "all workload queries processed");
    }

    /// Advances `k` to its horizon in `run_until` slices of `step`,
    /// calling `check` between slices.
    fn run_in_slices(k: &mut SimKernel, step: SimTime, mut check: impl FnMut(&SimKernel)) {
        let horizon = k.cfg.horizon;
        while k.now() < horizon {
            let next = (k.now() + step).min(horizon);
            k.run_until(next);
            check(k);
        }
    }

    #[test]
    fn inline_transport_completes_every_conversation_within_its_event() {
        use p2psim::churn::LifetimeDistribution;
        // SP churn with rebirth: drift, leave, join, re-home, takeover
        // and control traffic all run through the inline transport.
        let mut c = cfg(130, 12);
        c.sp_lifetime = Some(LifetimeDistribution::Exponential { mean_s: 3600.0 });
        c.rebirth = true;
        let mut k = SimKernel::networked(c, 25, Some(LookupTarget::Total)).unwrap();
        run_in_slices(&mut k, SimTime::from_secs(60), |k| {
            assert!(k.rings.is_empty(), "a ring outlived its event");
            assert!(k.ring_of_domain.iter().all(Option::is_none));
            assert!(k.rebirth_convs.is_empty(), "a hand-over outlived its event");
            assert!(k.inline.is_empty() && !k.draining, "inline queue drained");
            assert_eq!(k.peak_in_flight(), 0, "nothing is ever in flight");
            assert!(k.ledger.latency_counters().is_empty());
        });
        assert_eq!(k.error_status(), (0, None));
        assert!(k.rebirths() > 0, "the run exercised rebirth hand-overs");
        let rounds: u64 = k.domains.iter().map(|d| d.reconciliations).sum();
        assert!(rounds > 0, "the run exercised rings");
        assert!(k.multi_report().latency_by_class.is_empty());
    }

    #[test]
    fn finished_conversations_are_reaped_by_their_watchdogs() {
        use crate::config::{DeliveryMode, LatencyConfig};
        use p2psim::churn::LifetimeDistribution;
        let mut c = cfg(130, 13);
        c.delivery = DeliveryMode::Latency(LatencyConfig::wan_default());
        c.sp_lifetime = Some(LifetimeDistribution::Exponential { mean_s: 3600.0 });
        let timeout = LatencyConfig::wan_default().conversation_timeout;
        let mut k = SimKernel::networked(c, 25, Some(LookupTarget::Total)).unwrap();
        // Rings carry no start time: note when each was first seen.
        let mut first_seen: BTreeMap<u64, SimTime> = BTreeMap::new();
        run_in_slices(&mut k, SimTime::from_secs(60), |k| {
            for &conv in k.rings.keys() {
                first_seen.entry(conv).or_insert(k.now());
            }
        });
        let horizon = c.horizon;
        assert!(!k.inter_outcomes.is_empty(), "lookups completed");
        for lc in k.lookups.values() {
            assert!(
                horizon.saturating_sub(lc.started) <= timeout,
                "a lookup from {} outlived its watchdog",
                lc.started
            );
        }
        for conv in k.rings.keys() {
            let seen = first_seen[conv];
            assert!(
                horizon.saturating_sub(seen) <= timeout,
                "a ring seen at {seen} outlived its watchdog"
            );
        }
    }

    #[test]
    fn deterministic_dynamic_runs() {
        let a = MultiDomainSim::new(cfg(100, 6), 20, LookupTarget::Partial(5))
            .unwrap()
            .run();
        let b = MultiDomainSim::new(cfg(100, 6), 20, LookupTarget::Partial(5))
            .unwrap()
            .run();
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.push_messages, b.push_messages);
        assert!((a.mean_recall - b.mean_recall).abs() < 1e-12);
    }

    #[test]
    fn static_build_covers_network_with_domains() {
        let k = static_kernel(300, 1, 40);
        let sps = topo(&k).superpeers.len();
        assert!(sps >= 6);
        let assigned = topo(&k).assigned_count();
        assert!(assigned as f64 > 0.9 * (300 - sps) as f64);
    }

    #[test]
    fn static_total_lookup_finds_everything() {
        let mut k = static_kernel(250, 2, 30);
        assert!(
            !k.true_matches(0).is_empty(),
            "workload guarantees ~10% matches"
        );
        // Total lookup reaches full recall: the GS layer is exact on
        // crisp predicates, and the SP long links + flooding cover all
        // domains.
        let origin = k.live_origins()[0];
        let out = k.route_live(origin, 0, LookupTarget::Total);
        assert_eq!(out.results, out.results_total, "total lookup recall");
        assert!(out.satisfied);
        assert!(out.domains_visited >= 2, "must have crossed domains");
        assert_eq!(
            out.stale_answers, 0,
            "fresh static system has no stale answers"
        );
    }

    #[test]
    fn static_partial_lookup_stops_early() {
        let mut k = static_kernel(250, 3, 30);
        let origin = k.live_origins()[0];
        let total = k.route_live(origin, 0, LookupTarget::Total);
        let partial = k.route_live(origin, 0, LookupTarget::Partial(2));
        assert!(partial.results >= 2.min(partial.results_total));
        assert!(
            partial.messages <= total.messages,
            "partial {} must not exceed total {}",
            partial.messages,
            total.messages
        );
        assert!(partial.domains_visited <= total.domains_visited);
    }

    #[test]
    fn static_partial_lookup_message_cost_grows_with_ct() {
        // Mean (messages, domains visited) of template-0 lookups from
        // the first ten origins.
        let mean_cost = |k: &mut SimKernel, target: LookupTarget| {
            let origins: Vec<NodeId> = k.live_origins().into_iter().take(10).collect();
            let (mut msgs, mut domains) = (0.0, 0.0);
            for &origin in &origins {
                let out = k.route_live(origin, 0, target);
                msgs += out.messages as f64;
                domains += out.domains_visited as f64;
            }
            let n = origins.len() as f64;
            (msgs / n, domains / n)
        };
        let mut k = static_kernel(300, 4, 30);
        let (m1, d1) = mean_cost(&mut k, LookupTarget::Partial(1));
        let (m8, d8) = mean_cost(&mut k, LookupTarget::Partial(8));
        assert!(m8 >= m1, "more results need more messages: {m8} vs {m1}");
        assert!(d8 >= d1, "and more domains: {d8} vs {d1}");
    }

    #[test]
    fn static_flood_ttl_is_respected_not_clamped() {
        // The configured TTL must reach the routing layer as-is (an
        // earlier implementation silently clamped it to 2).
        let mut base = cfg(250, 6);
        base.flood_ttl = 1;
        let mut narrow = SimKernel::networked(base, 30, None).unwrap();
        base.flood_ttl = 4;
        let mut wide = SimKernel::networked(base, 30, None).unwrap();
        let origin = narrow.live_origins()[0];
        let out_narrow = narrow.route_live(origin, 0, LookupTarget::Total);
        let out_wide = wide.route_live(origin, 0, LookupTarget::Total);
        // A wider flood forwards strictly more messages on the same
        // topology and query load.
        assert!(
            out_wide.messages > out_narrow.messages,
            "TTL 4 ({}) must out-message TTL 1 ({})",
            out_wide.messages,
            out_narrow.messages
        );
    }

    #[test]
    fn static_caches_warm_up_and_cut_costs() {
        let mut k = static_kernel(300, 8, 30);
        let origin = k.live_origins()[0];
        // Warm the caches with a total lookup, then measure a partial
        // lookup: cached neighbors let it satisfy `C_t` with fewer (or at
        // worst equal) domain visits than the cold system needed.
        let need = k.true_matches(0).len().clamp(2, 10);
        let mut cold_k = static_kernel(300, 8, 30);
        let cold = cold_k.route_live(origin, 0, LookupTarget::Partial(need));

        let _ = k.route_live(origin, 0, LookupTarget::Total); // warm-up
        let warm = k.route_live(origin, 0, LookupTarget::Partial(need));
        assert!(
            warm.domains_visited <= cold.domains_visited,
            "warm visited {} domains vs cold {}",
            warm.domains_visited,
            cold.domains_visited
        );
        assert!(warm.satisfied);
        assert!(k.cache_hits() > 0, "flooded neighbors served from cache");
        // Total-lookup recall is unaffected by caching.
        let total_warm = k.route_live(origin, 0, LookupTarget::Total);
        assert_eq!(total_warm.results, total_warm.results_total);
    }

    #[test]
    fn static_cached_answers_never_inflate_results() {
        // Cache entries are validated against ground truth, so results
        // never exceed the true match count.
        let mut k = static_kernel(200, 9, 25);
        for i in 0..10u32 {
            let origin = NodeId(i * 7 % 200);
            if topo(&k).assignment[origin.index()].is_none() {
                continue;
            }
            let out = k.route_live(origin, 0, LookupTarget::Total);
            assert!(out.results <= out.results_total);
        }
    }

    #[test]
    fn static_unassigned_origin_yields_empty_outcome() {
        let mut k = static_kernel(100, 5, 20);
        // A superpeer is not a partner: routing from it is not defined
        // by §5 (queries are posed at client peers).
        let sp = topo(&k).superpeers[0];
        let out = k.route_live(sp, 0, LookupTarget::Partial(1));
        assert_eq!(out.messages, 0);
        assert!(!out.satisfied);
    }

    #[test]
    fn static_construction_is_deterministic() {
        let a = static_kernel(150, 7, 25);
        let b = static_kernel(150, 7, 25);
        assert_eq!(topo(&a).superpeers, topo(&b).superpeers);
        assert_eq!(topo(&a).assignment, topo(&b).assignment);
        assert_eq!(a.true_matches(0), b.true_matches(0));
    }
}
