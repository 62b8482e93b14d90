//! Per-layer probes: each times calls into one module's public
//! functions, at the sizes the workload runs them at, inside spans.

use fuzzy::BackgroundKnowledge;
use p2psim::{Graph, Network, NodeId, SimTime, Simulator, TopologyConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::generator::patient_table;
use relation::Schema;
use saintetiq::query::proposition::reformulate;
use saintetiq::query::relevant_sources;
use saintetiq::{wire, EngineConfig, SaintEtiQEngine, SourceId};
use summary_p2p::construction::{construct_domains, elect_superpeers};
use summary_p2p::kernel::KernelEvent;
use summary_p2p::peerstate::empty_accumulator;
use summary_p2p::workload::{background_distributions, generate_peer_data, make_templates};
use summary_p2p::{LookupTarget, MultiDomainSim, SimConfig};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Workload, DOMAIN_TARGET};

/// Per-call times of one layer probe round, medians unless named
/// otherwise. Layers a workload does not run are 0.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    pub generate_peer_data_us: f64,
    pub patient_table_us: f64,
    pub summarize_table_us: f64,
    pub decode_us: f64,
    pub decode_mb_s: f64,
    pub encode_mb_s: f64,
    pub update_source_encoded_us: f64,
    pub build_merged_ms: f64,
    pub relevant_sources_us: f64,
    pub topology_ms: f64,
    pub construction_ms: f64,
    pub event_ns: f64,
}

/// Local summaries generated per probe round (at least one domain's).
const GENERATED: usize = 200;
/// Scheduled-then-popped events per event-queue batch.
const EVENT_OPS: usize = 100_000;
/// Repetitions of the whole-network probes (topology, construction,
/// event-queue batches).
const NETWORK_REPS: usize = 5;

/// Runs every layer probe at workload `w`'s sizes. `queue_depth` is the
/// event-queue depth the kernel runs at.
pub fn probe(
    w: Workload,
    cfg: &SimConfig,
    queue_depth: usize,
    tr: &mut Tracer,
) -> Result<LayerTimes, String> {
    let mut out = LayerTimes::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let bk = BackgroundKnowledge::medical_cbk();
    let templates = make_templates(cfg.template_count);
    let m = w.domain_size();

    // workload → relation + saintetiq: one peer's database and summary.
    let mut summaries = Vec::with_capacity(m.max(GENERATED));
    let mut samples = Vec::new();
    for p in 0..m.max(GENERATED) {
        let (data, us) = tr.time("workload.generate_peer_data", || {
            generate_peer_data(
                &mut rng,
                p as u32,
                &bk,
                &templates,
                cfg.match_fraction,
                cfg.records_per_peer,
            )
        });
        summaries.push(data.map_err(|e| e.to_string())?.summary);
        samples.push(us);
    }
    out.generate_peer_data_us = median(&samples);

    let (mut table_us, mut summarize_us) = (Vec::new(), Vec::new());
    let dist = background_distributions();
    for p in 0..GENERATED {
        let (table, us) = tr.time("relation.patient_table", || {
            patient_table(
                &mut rng,
                cfg.records_per_peer,
                &dist,
                &templates[0].target,
                1,
            )
        });
        table_us.push(us);
        let (leaves, us) = tr.time("saintetiq.summarize_table", || {
            let mut engine = SaintEtiQEngine::new(
                bk.clone(),
                &Schema::patient(),
                EngineConfig::default(),
                SourceId(p as u32),
            )?;
            engine.summarize_table(&table);
            Ok::<_, saintetiq::SummaryError>(engine.into_tree().leaf_count())
        });
        leaves.map_err(|e| e.to_string())?;
        summarize_us.push(us);
    }
    out.patient_table_us = median(&table_us);
    out.summarize_table_us = median(&summarize_us);

    // wire: decoding the local summaries reconciliation pulls.
    let mut decode_us = Vec::new();
    for s in &summaries {
        let (tree, us) = tr.time("wire.decode", || wire::decode(s));
        tree.map_err(|e| e.to_string())?;
        decode_us.push(us);
    }
    out.decode_us = median(&decode_us);
    let decoded: usize = summaries.iter().map(|s| s.len()).sum();
    out.decode_mb_s = decoded as f64 / decode_us.iter().sum::<f64>();

    // delta: one domain's accumulator, then its canonical merged GS.
    let mut acc = empty_accumulator();
    let mut update_us = Vec::new();
    for (i, s) in summaries.iter().take(m).enumerate() {
        let (r, us) = tr.time("delta.update_source_encoded", || {
            acc.update_source_encoded(SourceId(i as u32), s)
        });
        r.map_err(|e| e.to_string())?;
        update_us.push(us);
    }
    out.update_source_encoded_us = median(&update_us);
    let mut build_us = Vec::new();
    let mut gs = None;
    for _ in 0..(10_000 / m).clamp(7, 101) {
        let (tree, us) = tr.time("delta.build_merged", || acc.build_merged());
        build_us.push(us);
        gs = Some(tree);
    }
    out.build_merged_ms = median(&build_us) / 1e3;
    let gs = gs.expect("at least one build");

    let (mut encoded, mut encode_us) = (0usize, 0.0);
    for _ in 0..20 {
        let (bytes, us) = tr.time("wire.encode", || wire::encode(&gs));
        encoded += bytes.len();
        encode_us += us;
    }
    out.encode_mb_s = encoded as f64 / encode_us;

    // query: peer localization on the domain-size GS.
    let props = templates
        .iter()
        .map(|t| reformulate(&t.query, &bk).map(|q| q.proposition))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut query_us = Vec::new();
    for i in 0..300 {
        let (hits, us) = tr.time("query.relevant_sources", || {
            relevant_sources(&gs, &props[i % props.len()])
        });
        std::hint::black_box(hits);
        query_us.push(us);
    }
    out.relevant_sources_us = median(&query_us);

    // p2psim + construction: the physical network and its domains.
    if w.is_network() {
        let topo = TopologyConfig {
            nodes: cfg.n_peers,
            m: cfg.topology_m,
            ..Default::default()
        };
        let (mut topo_us, mut build_us) = (Vec::new(), Vec::new());
        for _ in 0..NETWORK_REPS {
            let (graph, us) = tr.time("p2psim.topology", || {
                Graph::barabasi_albert(&topo, &mut rng)
            });
            topo_us.push(us);
            let mut net = Network::new(graph);
            let (domains, us) = tr.time("construction.build", || {
                let sps = elect_superpeers(&net, (cfg.n_peers / DOMAIN_TARGET).max(1));
                construct_domains(&mut net, &sps, cfg.sumpeer_ttl)
            });
            std::hint::black_box(domains);
            build_us.push(us);
        }
        out.topology_ms = median(&topo_us) / 1e3;
        out.construction_ms = median(&build_us) / 1e3;
    }

    // p2psim: one schedule + pop at the kernel's queue depth, with the
    // kernel's own event type so queue entries have their real size.
    let mut sim = Simulator::<KernelEvent>::new(cfg.seed);
    let hour = SimTime::from_hours(1).0;
    for i in 0..queue_depth {
        let at = SimTime(rng.gen_range(0..hour));
        sim.schedule_at(at, KernelEvent::Drift(NodeId(i as u32)));
    }
    let mut batch_ns = Vec::new();
    for _ in 0..NETWORK_REPS {
        let ((), us) = tr.time("p2psim.event_batch", || {
            for _ in 0..EVENT_OPS {
                let (_, e) = sim.next_event().expect("the queue never drains");
                sim.schedule_in(SimTime(rng.gen_range(1..hour)), e);
            }
        });
        batch_ns.push(us * 1e3 / EVENT_OPS as f64);
    }
    out.event_ns = median(&batch_ns);
    Ok(out)
}

/// `route_now` probes on an instance built only for them (its caches
/// fill as the probes run, so its report is never compared): per-lookup
/// host microseconds of §5.2.2 routing at t = 0.
pub fn route_probe(cfg: SimConfig, probes: usize, tr: &mut Tracer) -> Result<Vec<f64>, String> {
    let mut sim =
        MultiDomainSim::new(cfg, DOMAIN_TARGET, LookupTarget::Total).map_err(|e| e.to_string())?;
    let origins = sim.live_origins();
    let templates = sim.template_count();
    let mut us = Vec::with_capacity(probes);
    for i in 0..probes {
        let origin = origins[(i * 7919) % origins.len()];
        let (out, t) = tr.time("kernel.route_now", || {
            sim.route_now(origin, i % templates, LookupTarget::Total)
        });
        std::hint::black_box(out);
        us.push(t);
    }
    Ok(us)
}
