//! The repository benchmark. One invocation runs one workload:
//!
//! ```text
//! perfbench --workload <domain-large|network-churn|network-latency>
//!           --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: several simulations on
//! seeds derived from `--seed`, each gated for correctness.
//! `--trace 1` runs one simulation untraced and once more advanced in
//! timed virtual slices, probes every layer, and reports the per-layer
//! metrics; with `--trace-file` it writes the spans as Chrome Trace
//! Event JSON. Human-readable lines come first; the last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 only when
//! every check passed.

mod layers;
mod stats;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

use stats::{mean, median, quantile};
use trace::Tracer;
use workloads::{gate, simulate, sub_seed, Outcome, Workload, CLASSES};

const USAGE: &str = "usage: perfbench --workload <domain-large|network-churn|network-latency> \
                     --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_file) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--trace-file" => trace_file = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_file,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The result of one invocation, before it is printed.
#[derive(Default)]
struct Verdict {
    attempted: usize,
    failed: usize,
    /// Every failed check, in the order it was found.
    problems: Vec<String>,
}

impl Verdict {
    /// Runs one simulation, counting it as attempted and as failed when
    /// it panics or returns an error.
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let result = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => r,
            Err(_) => Err("panicked".to_string()),
        };
        result
            .map_err(|e| {
                self.failed += 1;
                self.problems.push(format!("{what}: {e}"));
            })
            .ok()
    }

    /// Records a failed check on the run as a whole.
    fn require(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut verdict = Verdict::default();
    let metrics = if args.trace {
        traced_run(&args, &mut verdict)
    } else {
        end_to_end_run(&args, &mut verdict)
    };
    for m in &metrics {
        verdict.require(m.value.is_finite(), || format!("{} is not finite", m.name));
    }
    for p in &verdict.problems {
        println!("FAILED CHECK: {p}");
    }
    println!("{}", result_json(&verdict, &metrics));
    if verdict.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_json(v: &Verdict, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.correct(),
        v.attempted,
        v.failed,
        body.join(", ")
    )
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM")?;
    Ok(kb / 1024.0)
}

/// `--trace 0`: simulations on `k` derived seeds, one repeat of the
/// first seed (reports must match exactly) and one gate run on a bare
/// kernel at the first seed. Host times: `setup_s` is the median over
/// every simulation built, `run_s` the mean over seeds of each seed's
/// median. Simulated metrics are means over the `k` seeds.
fn end_to_end_run(args: &Args, v: &mut Verdict) -> Vec<Metric> {
    let w = args.workload;
    let sims = ((args.seconds / w.nominal_sim_s()).round() as usize).clamp(4, 48);
    let k = sims - 2;
    let cfg = |i: usize| w.config(sub_seed(args.seed, i));
    println!(
        "workload {} seed {}: {sims} simulations of {} h virtual ({k} seeds, a repeat, a gate run)",
        w.name(),
        args.seed,
        w.horizon_h()
    );

    let mut setups = Vec::new();
    let mut runs: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut outcomes: Vec<Outcome> = Vec::new();
    for (i, seed_runs) in runs.iter_mut().enumerate() {
        let label = format!("simulation on seed {i}");
        if let Some((t, o)) = v.attempt(&label, || {
            let (t, o) = simulate(w, cfg(i), None)?;
            o.check()?;
            Ok((t, o))
        }) {
            setups.push(t.setup_s);
            seed_runs.push(t.run_s);
            outcomes.push(o);
        }
    }
    if let Some((t, again)) = v.attempt("repeat of seed 0", || simulate(w, cfg(0), None)) {
        setups.push(t.setup_s);
        runs[0].push(t.run_s);
        if let Some(first) = outcomes.first() {
            v.require(again.fingerprint == first.fingerprint, || {
                "determinism: a repeat of seed 0 reported differently".into()
            });
        }
    }
    if let Some((t, state)) = v.attempt("gate on seed 0", || gate(w, cfg(0), None)) {
        setups.push(t.setup_s);
        if let Some(first) = outcomes.first() {
            v.require(state.agrees_with(first), || {
                format!("determinism: the gate kernel ({state:?}) disagrees with seed 0's report")
            });
        }
    }
    if let [a, b, ..] = &outcomes[..] {
        v.require(a.fingerprint != b.fingerprint, || {
            "seed sensitivity: two seeds gave identical reports".into()
        });
    }
    if outcomes.len() < k {
        return Vec::new();
    }

    let avg = |f: fn(&Outcome) -> f64| mean(&outcomes.iter().map(f).collect::<Vec<_>>());
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        v.require(false, || format!("peak RSS: {e}"));
        f64::NAN
    });
    let per_seed: Vec<f64> = runs.iter().map(|r| median(r)).collect();
    let metrics = vec![
        metric("setup_s", "s", median(&setups)),
        metric("run_s", "s", mean(&per_seed)),
        metric("peak_rss_mb", "MB", rss),
        metric("recall", "fraction", avg(|o| o.recall)),
        metric(
            "stale_answer_fraction",
            "fraction",
            avg(|o| o.stale_answer_fraction),
        ),
        metric("msgs_per_lookup", "msgs", avg(|o| o.msgs_per_lookup)),
        metric(
            "maint_msgs_per_peer_h",
            "msgs/peer/h",
            avg(|o| o.maint_msgs_per_peer_h),
        ),
    ];
    for m in &metrics {
        println!("  {:<24} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<24} {:>14.6} s (mean virtual time-to-answer; 0 off the latency plane)",
        "tta_s",
        avg(|o| o.tta_s)
    );
    println!(
        "  host: setup over {} builds, run over {} simulations; run_s spread over seeds {:.4}..{:.4} s",
        setups.len(),
        runs.iter().map(Vec::len).sum::<usize>(),
        quantile(&per_seed, 0.0),
        quantile(&per_seed, 1.0)
    );
    let all: Vec<String> = runs.iter().flatten().map(|t| format!("{t:.4}")).collect();
    println!("  host: run_s per simulation, in run order: {}", all.join(" "));
    print_properties(&outcomes, w);
    metrics
}

/// The workload properties later "helps only X" claims need a share of,
/// and the §6.1 cost model beside the measured costs.
fn print_properties(outcomes: &[Outcome], w: Workload) {
    let sum = |f: fn(&Outcome) -> f64| outcomes.iter().map(f).sum::<f64>();
    let lookups = sum(|o| o.queries as f64);
    let reads = if w.is_network() {
        sum(|o| o.queries as f64 * o.domains_visited)
    } else {
        lookups
    };
    let merged = sum(|o| o.merged_members as f64);
    let pulls = merged + sum(|o| o.skipped_members as f64);
    let deliveries = sum(|o| o.deliveries.iter().sum::<u64>() as f64);
    println!("  properties (summed over {} seeds):", outcomes.len());
    println!(
        "    GS reads per GS build  {:.3}",
        reads / sum(|o| o.reconciliations as f64).max(1.0)
    );
    println!("    stale share per pull   {:.4}", merged / pulls.max(1.0));
    println!(
        "    deliveries per lookup  {:.1}",
        deliveries / lookups.max(1.0)
    );
    println!(
        "    mean domain size       {:.1}",
        sum(|o| o.mean_domain_size) / outcomes.len() as f64
    );
    println!(
        "    cache hits per lookup  {:.3}",
        sum(|o| o.cache_hits as f64) / lookups.max(1.0)
    );
    let avg = |f: fn(&Outcome) -> f64| sum(f) / outcomes.len() as f64;
    println!(
        "  §6.1 anchor: update cost measured {:.4} / model {:.4} msgs/peer/h = {:.3}; \
         query cost measured {:.1} / model {:.1} msgs = {:.3}",
        avg(|o| o.maint_msgs_per_peer_h),
        avg(|o| o.model_maint_msgs_per_peer_h),
        avg(|o| o.maint_msgs_per_peer_h) / avg(|o| o.model_maint_msgs_per_peer_h),
        avg(|o| o.msgs_per_lookup),
        avg(|o| o.model_msgs_per_lookup),
        avg(|o| o.msgs_per_lookup) / avg(|o| o.model_msgs_per_lookup),
    );
}

/// Route probes per traced network run.
const ROUTE_PROBES: usize = 200;

/// `--trace 1`: the untraced simulation of seed 0, the same simulation
/// advanced in timed slices (its report must match), the correctness
/// gate, then the layer probes.
fn traced_run(args: &Args, v: &mut Verdict) -> Vec<Metric> {
    let w = args.workload;
    let cfg = w.config(sub_seed(args.seed, 0));
    let mut tr = Tracer::new();
    let root = tr.enter("benchmark");
    println!(
        "workload {} seed {} traced: {} h virtual in {} s slices",
        w.name(),
        args.seed,
        w.horizon_h(),
        workloads::SLICE.as_secs_f64()
    );

    let id = tr.enter("untraced.simulate");
    let untraced = v.attempt("untraced simulation", || {
        let (t, o) = simulate(w, cfg, None)?;
        o.check()?;
        Ok((t, o))
    });
    tr.exit(id);
    let Some((untraced_t, o)) = untraced else {
        return Vec::new();
    };

    // The sliced run: the facade for the network workloads (its report
    // must equal the untraced one), a bare kernel for domain-large,
    // whose facade cannot be advanced in slices (its final state must
    // equal the unsliced gate kernel's). The overhead is taken against
    // the unsliced runs of the same kind around it: on the network
    // workloads the mean of the facade before and the gate kernel after,
    // so a slow drift in host speed cancels out; on domain-large the
    // gate kernel alone, as its facade also builds a costly report.
    let id = tr.enter("traced.simulate");
    let (traced_run_s, sliced_state) = if w.is_network() {
        let traced = v.attempt("traced simulation", || simulate(w, cfg, Some(&mut tr)));
        if let Some((_, t)) = &traced {
            v.require(t.fingerprint == o.fingerprint, || {
                "determinism: the sliced run reported differently from the untraced one".into()
            });
        }
        (traced.map(|(t, _)| t.run_s), None)
    } else {
        match v.attempt("traced gate", || gate(w, cfg, Some(&mut tr))) {
            Some((t, state)) => (Some(t.run_s), Some(state)),
            None => (None, None),
        }
    };
    tr.exit(id);
    let id = tr.enter("gate.simulate");
    let gated = v.attempt("gate", || gate(w, cfg, None));
    tr.exit(id);
    if let Some((_, state)) = &gated {
        v.require(state.agrees_with(&o), || {
            format!("determinism: the gate kernel ({state:?}) disagrees with the report")
        });
        if let Some(sliced) = &sliced_state {
            v.require(sliced == state, || {
                "determinism: the sliced kernel ended in another state than the unsliced one".into()
            });
        }
    }
    let (Some(traced_run_s), Some((gate_t, _))) = (traced_run_s, gated) else {
        return Vec::new();
    };
    let reference_run_s = if w.is_network() {
        (untraced_t.run_s + gate_t.run_s) / 2.0
    } else {
        gate_t.run_s
    };
    println!(
        "  run_s: unsliced facade {:.4} s, sliced {traced_run_s:.4} s, unsliced gate kernel {:.4} s",
        untraced_t.run_s, gate_t.run_s
    );

    let depth = (o.peak_in_flight as usize).max(2 * cfg.n_peers);
    let id = tr.enter("layers");
    let probed = v.attempt("layer probes", || layers::probe(w, &cfg, depth, &mut tr));
    let routes = if w.is_network() {
        v.attempt("route probes", || {
            layers::route_probe(cfg, ROUTE_PROBES, &mut tr)
        })
    } else {
        Some(Vec::new())
    };
    tr.exit(id);
    tr.exit(root);
    let (Some(l), Some(routes)) = (probed, routes) else {
        return Vec::new();
    };

    let slices_ms: Vec<f64> = tr
        .durations_us("kernel.slice")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    let lookups = o.queries as f64;
    let deliveries: u64 = o.deliveries.iter().sum();
    let pulls = o.merged_members + o.skipped_members;
    let route_p50 = quantile(&routes, 0.5);
    let est = [
        (
            "est.build_merged_s",
            o.reconciliations as f64 * l.build_merged_ms / 1e3,
        ),
        (
            "est.delta_update_s",
            o.merged_members as f64 * l.update_source_encoded_us / 1e6,
        ),
        // Instantaneous lookups are route_live calls; on the latency
        // plane they run as conversations and are not one call each.
        (
            "est.route_s",
            if w == Workload::NetworkChurn {
                lookups * route_p50 / 1e6
            } else {
                0.0
            },
        ),
        // Network workloads localize peers inside route_live.
        (
            "est.query_s",
            if w.is_network() {
                0.0
            } else {
                lookups * l.relevant_sources_us / 1e6
            },
        ),
    ];
    let mut m = vec![
        metric("kernel.slice_ms.p50", "ms", quantile(&slices_ms, 0.5)),
        metric("kernel.slice_ms.p90", "ms", quantile(&slices_ms, 0.9)),
        metric("kernel.slice_ms.max", "ms", quantile(&slices_ms, 1.0)),
        metric("kernel.slices", "count", slices_ms.len() as f64),
        metric("kernel.route_us.p50", "us", route_p50),
        metric("kernel.route_us.p90", "us", quantile(&routes, 0.9)),
        metric(
            "workload.generate_peer_data_us",
            "us",
            l.generate_peer_data_us,
        ),
        metric("relation.patient_table_us", "us", l.patient_table_us),
        metric("saintetiq.summarize_table_us", "us", l.summarize_table_us),
        metric("wire.decode_us", "us", l.decode_us),
        metric("wire.decode_mb_s", "MB/s", l.decode_mb_s),
        metric("wire.encode_mb_s", "MB/s", l.encode_mb_s),
        metric(
            "delta.update_source_encoded_us",
            "us",
            l.update_source_encoded_us,
        ),
        metric("delta.build_merged_ms", "ms", l.build_merged_ms),
        metric("delta.merged_members", "count", o.merged_members as f64),
        metric("delta.skipped_members", "count", o.skipped_members as f64),
        metric(
            "delta.reuse_ratio",
            "fraction",
            o.skipped_members as f64 / (pulls.max(1)) as f64,
        ),
        metric("delta.pulled_bytes", "bytes", o.pulled_bytes as f64),
        metric(
            "peerstate.reconciliations",
            "count",
            o.reconciliations as f64,
        ),
        metric("query.relevant_sources_us", "us", l.relevant_sources_us),
        metric("p2psim.topology_ms", "ms", l.topology_ms),
        metric("p2psim.event_ns", "ns", l.event_ns),
        metric("construction.build_ms", "ms", l.construction_ms),
        metric("construction.rebirths", "count", o.rebirths as f64),
        metric(
            "construction.min_live_domains",
            "count",
            if w.is_network() {
                o.min_live_domains as f64
            } else {
                0.0
            },
        ),
        metric("plane.deliveries", "count", deliveries as f64),
    ];
    for ((_, class), n) in CLASSES.iter().zip(o.deliveries) {
        m.push(metric(
            format!("plane.deliveries.{class}"),
            "count",
            n as f64,
        ));
    }
    m.extend([
        metric("plane.peak_in_flight", "count", o.peak_in_flight as f64),
        metric("plane.tta_s", "s", o.tta_s),
        metric("msgs.push", "count", o.push_msgs as f64),
        metric("msgs.reconciliation", "count", o.reconciliation_msgs as f64),
        metric("msgs.construction", "count", o.construction_msgs as f64),
        metric("routing.lookups", "count", lookups),
        metric(
            "routing.cache_hits_per_lookup",
            "ratio",
            o.cache_hits as f64 / lookups.max(1.0),
        ),
        metric("routing.domains_visited", "count", o.domains_visited),
        metric("control.mean_final_alpha", "fraction", o.mean_final_alpha),
        metric(
            "props.gs_reads_per_build",
            "ratio",
            lookups * o.domains_visited / (o.reconciliations.max(1)) as f64,
        ),
        metric(
            "props.deliveries_per_lookup",
            "msgs",
            deliveries as f64 / lookups.max(1.0),
        ),
        metric("props.mean_domain_size", "count", o.mean_domain_size),
        metric(
            "anchor.update_ratio",
            "ratio",
            o.maint_msgs_per_peer_h / o.model_maint_msgs_per_peer_h,
        ),
        metric(
            "anchor.query_ratio",
            "ratio",
            o.msgs_per_lookup / o.model_msgs_per_lookup,
        ),
    ]);
    let covered: f64 = est.iter().map(|(_, s)| s).sum();
    m.extend(est.iter().map(|&(name, s)| metric(name, "s", s)));
    m.extend([
        metric("est.coverage", "fraction", covered / untraced_t.run_s),
        metric("trace.run_s", "s", traced_run_s),
        metric("trace.overhead_s", "s", traced_run_s - reference_run_s),
    ]);

    for x in &m {
        println!("  {:<34} {:>16.6} {}", x.name, x.value, x.unit);
    }
    println!(
        "  unobservable until in-program tracing: drift regenerations, events per kind \
         (no public counter; not estimated)"
    );
    println!("  self time by span (ms):");
    for (name, us) in tr.self_times_us() {
        println!("    {name:<34} {:>12.3}", us / 1e3);
    }
    if let Some(path) = &args.trace_file {
        match tr.write_chrome_trace(path) {
            Ok(()) => println!("  trace: {} spans in {}", tr.spans().len(), path.display()),
            Err(e) => v.require(false, || format!("writing {}: {e}", path.display())),
        }
    }
    m
}
