//! The three workloads, each split into a set-up (timed as `setup_s`) and
//! a measured phase (timed as `run_s`), driven through the crates' public
//! functions so every layer call can be timed from outside.
//!
//! Each workload rebuilds the `repro` path it stands for step by step;
//! the tests check that the rebuilt path yields byte-identical reports.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use recross::config::ReCrossConfig;
use recross::engine::ReCross;
use recross::profile::{analytic_profiles, empirical_profiles};
use recross_bench::serving::{
    batcher_config, requests_for, slo_to_json, tenant_batcher_config, traced_point_to_json,
    TracedPoint, CHANNELS, SLO_ITERATIONS,
};
use recross_bench::workloads::{dram, generator, Scale};
use recross_dram::check::check_trace;
use recross_nmp::accel::{EmbeddingAccelerator, RunReport};
use recross_nmp::multichannel::ChannelPlan;
use recross_nmp::{AccessProfile, CpuBaseline, RecNmp, ServiceSession, TensorDimm, Trim};
use recross_serve::{
    open_sessions, simulate_sessions, simulate_tenant_sessions, simulate_tenant_sessions_obs,
    ArrivalProcess, QueuePolicy, ServeObs, ServeReport, TenantMix,
};
use recross_workload::{Batch, Trace};

use crate::checks::{self, key, Reference, PAPER_SPEEDUPS};
use crate::instr::{self, span, CommandLog, CountingWriter, Timed, Written};
use crate::layers::{Layers, ARCHS};
use crate::stats::fnv;

/// The tenant mix of `traced_tenants` (`repro serve --tenants=` grammar).
pub const TENANTS: &str = "rt:0.7:poisson:10us:high,batch:0.3:mmpp:50us:low";
/// Offered load of `traced_tenants`, as a multiple of estimated capacity.
pub const TENANT_LOAD: f64 = 2.0;
/// The p99 bound of `slo_search` (`repro serve --slo-search`'s default).
pub const SLO_P99_US: f64 = 100.0;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper-scale headline: six architectures' offline runs.
    PaperHeadline,
    /// The quick-scale SLO bisection, CPU then ReCross.
    SloSearch,
    /// One traced multi-tenant ReCross point, streamed and aggregated.
    TracedTenants,
}

/// Everything one measured unit of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// Host seconds of this unit's set-up.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub run_s: f64,
    /// Simulated lookups the measured phase offered the simulator.
    pub sim_lookups: f64,
    /// Simulated results, one `sim.*` line each.
    pub sim: Vec<String>,
    /// The simulated report: the bytes `repro` prints for this workload
    /// (its digest is what the checks compare).
    pub report: String,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Per-layer counts read from the simulated outputs.
    pub counts: Layers,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperHeadline,
        Workload::SloSearch,
        Workload::TracedTenants,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperHeadline => "paper_headline",
            Workload::SloSearch => "slo_search",
            Workload::TracedTenants => "traced_tenants",
        }
    }

    /// The seed its references are pinned at (the default `--seed`).
    pub fn pinned_seed(self) -> u64 {
        match self {
            Workload::PaperHeadline => checks::HEADLINE_SEED,
            Workload::SloSearch => checks::SLO_SEED,
            Workload::TracedTenants => checks::TENANTS_SEED,
        }
    }

    /// The scale the benchmark runs it at.
    pub fn scale(self) -> Scale {
        match self {
            Workload::PaperHeadline => Scale::Paper,
            Workload::SloSearch | Workload::TracedTenants => Scale::Quick,
        }
    }

    /// Set-up-only repetitions before the measured units, so `setup_s` is
    /// a median of several samples (quick-scale set-ups take milliseconds).
    pub fn extra_setups(self) -> usize {
        match self {
            Workload::PaperHeadline => 8,
            Workload::SloSearch | Workload::TracedTenants => 24,
        }
    }

    /// Times one set-up and discards it.
    pub fn setup_only(self, scale: Scale, seed: u64, traced: bool) -> f64 {
        match self {
            Workload::PaperHeadline => timed("bench.setup", || headline_setup(scale, seed)).1,
            Workload::SloSearch => timed("bench.setup", || slo_setup(scale, seed, traced)).1,
            Workload::TracedTenants => {
                timed("bench.setup", || tenant_setup(scale, seed, traced, None)).1
            }
        }
    }

    /// Sets up, measures and checks one unit.
    pub fn unit(self, scale: Scale, seed: u64, traced: bool, reference: &Reference) -> Unit {
        match self {
            Workload::PaperHeadline => headline_unit(scale, seed, traced, reference),
            Workload::SloSearch => slo_unit(scale, seed, traced, reference),
            Workload::TracedTenants => tenant_unit(scale, seed, traced, reference),
        }
    }
}

/// Runs `f` as a root span named `name`, returning its host seconds.
fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let open = instr::enter(name, "");
    let start = Instant::now();
    let r = f();
    let secs = start.elapsed().as_secs_f64();
    open.exit();
    (r, secs)
}

// ---------------------------------------------------------------- headline

struct Headline {
    trace: Trace,
    others: Vec<Box<dyn EmbeddingAccelerator>>,
    recross: ReCross,
}

/// `experiments::run_all`'s construction, with the trace at `seed`.
fn headline_setup(scale: Scale, seed: u64) -> Headline {
    let g = generator(scale, 64);
    let trace = span("workload.generate", "", || g.generate(seed));
    let profile = AccessProfile::from_trace(&trace);
    let profiles = analytic_profiles(&g);
    let batch = g.batch_size_value() as f64;
    let d = dram();
    let others: Vec<Box<dyn EmbeddingAccelerator>> = vec![
        Box::new(CpuBaseline::new(d.clone())),
        Box::new(TensorDimm::new(d.clone())),
        Box::new(RecNmp::new(d.clone())),
        Box::new(Trim::bank_group(d.clone()).with_profile(profile.clone())),
        Box::new(Trim::bank(d.clone()).with_profile(profile)),
    ];
    let mut cfg = ReCrossConfig::default_d(d);
    cfg.name = "ReCross".to_owned();
    let recross = span("core.build", "recross", || {
        ReCross::new(cfg, profiles, batch).expect("placement fits")
    });
    Headline {
        trace,
        others,
        recross,
    }
}

/// The six rows `repro headline` prints.
pub fn headline_rows(reports: &[RunReport]) -> Vec<String> {
    let cpu_ns = reports[0].ns;
    reports
        .iter()
        .map(|r| {
            format!(
                "{:<12} {:>12} {:>12.0} {:>9.2} {:>8.2} {:>8.2} {:>12.2} {:>10} {:>10}",
                r.name,
                r.cycles,
                r.ns,
                cpu_ns / r.ns,
                r.imbalance.mean,
                r.row_hit_rate,
                r.energy.total_pj() / 1e6,
                r.op_latency.p50,
                r.op_latency.p99
            )
        })
        .collect()
}

fn headline_unit(scale: Scale, seed: u64, traced: bool, reference: &Reference) -> Unit {
    let (mut h, setup_s) = timed("bench.setup", || headline_setup(scale, seed));
    let (reports, run_s) = timed("bench.measure", || {
        let mut reports: Vec<RunReport> = Vec::with_capacity(ARCHS.len());
        for (acc, (_, k)) in h.others.iter_mut().zip(ARCHS) {
            reports.push(span("nmp.run", k, || acc.run(&h.trace)));
        }
        reports.push(span("nmp.run", "recross", || h.recross.run(&h.trace)));
        reports
    });
    if traced {
        span("core.plan", "recross", || {
            h.recross.plans_for_test(&h.trace).len()
        });
    }

    let report = headline_rows(&reports).join("\n");
    let cycles: Vec<u64> = reports.iter().map(|r| r.cycles).collect();
    let mut sim: Vec<String> = reports
        .iter()
        .map(|r| format!("sim.cycles.{} {}", key(&r.name), r.cycles))
        .collect();
    for (fast, slow, paper) in PAPER_SPEEDUPS {
        let find = |n: &str| reports.iter().find(|r| r.name == n).expect("all six ran");
        let measured = find(fast).speedup_over(find(slow));
        sim.push(checks::speedup_line(fast, slow, measured, paper));
    }
    let counts = reports
        .iter()
        .map(|r| {
            (
                format!("dram.activations.{}", key(&r.name)),
                r.counters.activations as f64,
            )
        })
        .collect();
    Unit {
        setup_s,
        run_s,
        sim_lookups: reports.iter().map(|r| r.lookups as f64).sum(),
        sim,
        failures: checks::compare(reference, Some(&cycles), fnv(&report)),
        report,
        counts,
    }
}

// ------------------------------------------------------- serving helpers

/// `serving::make_recross`: one ReCross per channel from the channel's
/// empirical profiles.
fn make_recross(sub: &Trace, batch_hint: f64) -> ReCross {
    let profile = AccessProfile::from_trace(sub);
    let profiles = empirical_profiles(&sub.tables, &profile);
    span("core.build", "recross", || {
        ReCross::new(ReCrossConfig::default_d(dram()), profiles, batch_hint)
            .expect("placement fits")
    })
}

/// `serving::arch_sessions`, each session wrapped in the timing decorator
/// when `traced`.
fn open_arch(
    arch: &str,
    trace: &Trace,
    plan: &ChannelPlan,
    batch_hint: f64,
    traced: bool,
    log: Option<CommandLog>,
) -> Vec<Box<dyn ServiceSession>> {
    let d = dram();
    let sessions = match arch {
        "CPU" => open_sessions(trace, plan, |_, _| CpuBaseline::new(d.clone())),
        _ => open_sessions(trace, plan, |_, sub| make_recross(sub, batch_hint)),
    };
    if !traced {
        return sessions;
    }
    let k = if arch == "CPU" { "cpu" } else { "recross" };
    sessions
        .into_iter()
        .map(|s| Timed::wrap(s, k, log.clone()))
        .collect()
}

/// `serving::estimate_capacity_qps`: the slowest channel's rate serving
/// `max_batch` merged requests.
fn estimate_capacity_qps(
    trace: &Trace,
    plan: &ChannelPlan,
    max_batch: usize,
    cycles_per_sec: f64,
    sessions: &mut [Box<dyn ServiceSession>],
) -> f64 {
    let take = trace.batches.len().min(max_batch);
    let mut capacity = f64::INFINITY;
    for (ch, (sub, _)) in plan.split(trace).into_iter().enumerate() {
        let merged = Batch {
            ops: sub.batches[..take]
                .iter()
                .flat_map(|b| b.ops.iter().cloned())
                .collect(),
        };
        if merged.ops.is_empty() {
            continue;
        }
        let cycles = sessions[ch].service(&merged);
        if cycles > 0 {
            capacity = capacity.min(take as f64 * cycles_per_sec / cycles as f64);
        }
    }
    assert!(capacity.is_finite(), "trace must exercise some channel");
    capacity
}

/// The serving request set: `requests_for(scale)` single-sample batches
/// and the channel plan sharding them.
fn serving_trace(scale: Scale, seed: u64) -> (Trace, ChannelPlan) {
    let n = requests_for(scale);
    let trace = span("workload.generate", "", || {
        generator(scale, 64).batch_size(1).batches(n).generate(seed)
    });
    let plan = ChannelPlan::balance_by_load(&trace, CHANNELS);
    (trace, plan)
}

// ------------------------------------------------------------ slo search

struct Slo {
    trace: Trace,
    plan: ChannelPlan,
    sessions: Vec<Vec<Box<dyn ServiceSession>>>,
}

const SLO_ARCHS: [&str; 2] = ["CPU", "ReCross"];

fn slo_setup(scale: Scale, seed: u64, traced: bool) -> Slo {
    let (trace, plan) = serving_trace(scale, seed);
    let hint = batcher_config(QueuePolicy::Fifo).max_batch as f64;
    let sessions = SLO_ARCHS
        .iter()
        .map(|arch| open_arch(arch, &trace, &plan, hint, traced, None))
        .collect();
    Slo {
        trace,
        plan,
        sessions,
    }
}

fn slo_unit(scale: Scale, seed: u64, traced: bool, reference: &Reference) -> Unit {
    let (mut s, setup_s) = timed("bench.setup", || slo_setup(scale, seed, traced));
    let cfg = batcher_config(QueuePolicy::Fifo);
    let cps = dram().cycles_per_sec();
    let n = s.trace.batches.len();
    let mut probe_reports: Vec<ServeReport> = Vec::new();
    let (reports, run_s) = timed("bench.measure", || {
        let mut reports = Vec::new();
        // Each arch's sessions (and memo) are dropped once its search ends,
        // as in `repro`, so peak memory is the larger memo, not the sum.
        for (arch, mut sessions) in SLO_ARCHS.iter().zip(std::mem::take(&mut s.sessions)) {
            let k = if *arch == "CPU" { "cpu" } else { "recross" };
            let capacity =
                estimate_capacity_qps(&s.trace, &s.plan, cfg.max_batch, cps, &mut sessions);
            reports.push(recross_serve::slo::search(
                arch,
                SLO_P99_US,
                capacity * 0.05,
                capacity * 2.0,
                SLO_ITERATIONS,
                |qps| {
                    let report = span("serve.probe", k, || {
                        let arrivals =
                            ArrivalProcess::poisson(qps).timestamps(n, cps, seed ^ 0xA221);
                        simulate_sessions(
                            arch,
                            &s.trace,
                            &s.plan,
                            &arrivals,
                            cfg,
                            cps,
                            &mut sessions,
                        )
                    });
                    probe_reports.push(report.clone());
                    report
                },
            ));
        }
        reports
    });

    let report = slo_to_json(&reports, scale, false, QueuePolicy::Fifo, seed);
    let mut sim = Vec::new();
    for r in &reports {
        let k = key(&r.arch);
        sim.push(format!("sim.max_qps.{k} {}", r.max_qps));
        sim.push(format!("sim.probes.{k} {}", r.probes.len()));
        sim.push(format!("sim.memo_misses.{k} {}", r.cache_total().misses));
        sim.push(format!(
            "sim.memo_hit_rate.{k} {:.4}",
            r.cache_total().hit_rate()
        ));
    }
    if reports[0].max_qps > 0.0 {
        sim.push(format!(
            "sim.speedup.recross_vs_cpu.max_qps {:.2}x (paper: no serving figure; closed-loop headline 15.5x)",
            reports[1].max_qps / reports[0].max_qps
        ));
    }
    let probes: usize = reports.iter().map(|r| r.probes.len()).sum();
    Unit {
        setup_s,
        run_s,
        sim_lookups: (probes * s.trace.lookups()) as f64,
        sim,
        failures: checks::compare(reference, None, fnv(&report)),
        report,
        counts: serve_counts(&probe_reports),
    }
}

/// `serve.dispatches`, `serve.late` and `serve.deadline_shed` summed over
/// simulated runs.
fn serve_counts(reports: &[ServeReport]) -> Layers {
    let dispatches: u64 = reports
        .iter()
        .flat_map(|r| &r.channels)
        .map(|c| c.dispatches)
        .sum();
    let tenants = || reports.iter().flat_map(|r| &r.tenants);
    Layers::from([
        ("serve.dispatches".to_string(), dispatches as f64),
        (
            "serve.late".to_string(),
            tenants().map(|t| t.missed).sum::<u64>() as f64,
        ),
        (
            "serve.deadline_shed".to_string(),
            tenants().map(|t| t.deadline_shed).sum::<u64>() as f64,
        ),
    ])
}

// ------------------------------------------------------- traced tenants

struct Tenants {
    trace: Trace,
    plan: ChannelPlan,
    mix: TenantMix,
    sessions: Vec<Box<dyn ServiceSession>>,
}

/// The tenant mix, parsed exactly as `repro serve --tenants=` parses it.
pub fn tenant_mix() -> TenantMix {
    recross_bench::cli::parse_tenants(&[format!("--tenants={TENANTS}")])
        .expect("the built-in tenant spec parses")
        .expect("the spec is present")
}

fn tenant_setup(scale: Scale, seed: u64, traced: bool, log: Option<CommandLog>) -> Tenants {
    let (trace, plan) = serving_trace(scale, seed);
    let hint = tenant_batcher_config(QueuePolicy::Edf).max_batch as f64;
    let sessions = open_arch("ReCross", &trace, &plan, hint, traced, log);
    Tenants {
        trace,
        plan,
        mix: tenant_mix(),
        sessions,
    }
}

/// The traced point's report: its `repro` JSON line, its `--agg-out`
/// JSON, and the streamed Perfetto timeline's length and digest.
fn tenant_report(p: &TracedPoint, scale: Scale, seed: u64, stream: Written) -> String {
    let json = traced_point_to_json(p, scale, Some(&tenant_mix()), false, QueuePolicy::Edf, seed);
    let agg = p.agg.as_ref().expect("aggregation was enabled").to_json();
    format!(
        "{json}\n{agg}\nstream {} {:016x}",
        stream.bytes, stream.digest
    )
}

fn tenant_unit(scale: Scale, seed: u64, traced: bool, reference: &Reference) -> Unit {
    let log: CommandLog = Rc::new(RefCell::new(Vec::new()));
    let (mut t, setup_s) = timed("bench.setup", || {
        tenant_setup(scale, seed, traced, traced.then(|| Rc::clone(&log)))
    });
    let d = dram();
    let cps = d.cycles_per_sec();
    let cfg = tenant_batcher_config(QueuePolicy::Edf);
    let n = t.trace.batches.len();
    let (writer, written) = CountingWriter::new();
    let (point, run_s) = timed("bench.measure", || {
        let capacity =
            estimate_capacity_qps(&t.trace, &t.plan, cfg.max_batch, cps, &mut t.sessions);
        let qps = capacity * TENANT_LOAD;
        let requests = t.mix.requests(n, qps, cps, seed ^ 0xA221);
        let mut obs = ServeObs::new(d.clone());
        obs.set_dram_trace(true);
        obs.stream_to(writer);
        obs.enable_agg();
        obs.unbuffer();
        let report = span("serve.traced", "recross", || {
            simulate_tenant_sessions_obs(
                "ReCross",
                &t.trace,
                &t.plan,
                &requests,
                &t.mix,
                cfg,
                cps,
                &mut t.sessions,
                &mut obs,
            )
        });
        span("obs.finish", "", || obs.finish()).expect("a counting writer never fails");
        let (obs_report, agg) = span("obs.report", "", || {
            (obs.obs_report(&report), obs.aggregates())
        });
        (
            TracedPoint {
                arch: "ReCross".to_string(),
                load: TENANT_LOAD,
                capacity_qps: capacity,
                offered_qps: qps,
                dram_trace: true,
                report,
                obs: obs_report,
                perfetto: None,
                agg,
            },
            requests,
        )
    });
    let (p, requests) = point;
    let stream = written();
    let report = tenant_report(&p, scale, seed, stream);
    let mut failures = checks::compare(reference, None, fnv(&report));

    let mut counts = serve_counts(std::slice::from_ref(&p.report));
    counts.insert("serve.late".into(), p.obs.late as f64);
    counts.insert("serve.deadline_shed".into(), p.obs.deadline_shed as f64);
    counts.insert("obs.bytes".into(), stream.bytes as f64);
    counts.insert("obs.heap_kib".into(), p.obs.heap_capacity as f64 / 1024.0);
    let dropped: u64 = p.obs.sinks.iter().map(|s| s.dropped).sum();
    counts.insert("obs.dropped".into(), dropped as f64);

    if traced {
        // Outside the measured phase: replay every priced command stream
        // through the independent checker...
        let log = log.borrow();
        let violations: usize = log
            .iter()
            .map(|cmds| check_trace(d.topology, d.timing, cmds).len())
            .sum();
        counts.insert(
            "dram.commands".into(),
            log.iter().map(Vec::len).sum::<usize>() as f64,
        );
        counts.insert("dram.violations".into(), violations as f64);
        if violations > 0 {
            failures.push(format!(
                "{violations} DRAM timing violations in traced command streams"
            ));
        }
        // ...and re-serve the point untraced on fresh sessions: the event
        // loop's own time, and proof that tracing changed no byte.
        let untraced = timed("bench.reference", || {
            let mut fresh = tenant_setup(scale, seed, true, None);
            estimate_capacity_qps(
                &fresh.trace,
                &fresh.plan,
                cfg.max_batch,
                cps,
                &mut fresh.sessions,
            );
            span("serve.reference", "recross", || {
                simulate_tenant_sessions(
                    "ReCross",
                    &fresh.trace,
                    &fresh.plan,
                    &requests,
                    &fresh.mix,
                    cfg,
                    cps,
                    &mut fresh.sessions,
                )
            })
        })
        .0;
        if untraced.to_json() != p.report.to_json() {
            failures.push("the traced ServeReport differs from the untraced one".to_string());
        }
    }

    let sim = vec![
        format!("sim.capacity_qps {}", p.capacity_qps),
        format!("sim.offered_qps {}", p.offered_qps),
        format!("sim.completed {}", p.obs.completed),
        format!("sim.late {}", p.obs.late),
        format!("sim.queue_shed {}", p.obs.queue_shed),
        format!("sim.deadline_shed {}", p.obs.deadline_shed),
        format!(
            "sim.dram_commands {}",
            p.obs
                .channels
                .iter()
                .filter_map(|c| c.attribution.as_ref())
                .map(|a| a.commands)
                .sum::<u64>()
        ),
        format!("sim.stream_bytes {}", stream.bytes),
    ];
    Unit {
        setup_s,
        run_s,
        sim_lookups: t.trace.lookups() as f64,
        sim,
        report,
        failures,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use recross_bench::experiments::run_all;
    use recross_bench::serving::{slo_search_at, traced_point_with, TraceOptions};

    use super::*;

    const SEED: u64 = 11;

    #[test]
    fn headline_rebuilds_repro_and_tampered_cycles_fail() {
        let g = generator(Scale::Tiny, 64);
        let repro = headline_rows(&run_all(&g, &g.generate(SEED), &dram())).join("\n");
        let unit = headline_unit(Scale::Tiny, SEED, false, &Reference::default());
        assert_eq!(unit.report, repro);
        assert!(unit.failures.is_empty());

        let cycles: Vec<u64> = unit
            .sim
            .iter()
            .take(6)
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        let mut tampered: [u64; 6] = cycles.try_into().unwrap();
        let honest = Reference {
            cycles: Some(tampered),
            digest: Some(fnv(&unit.report)),
        };
        assert!(headline_unit(Scale::Tiny, SEED, false, &honest)
            .failures
            .is_empty());
        tampered[5] += 1;
        let reference = Reference {
            cycles: Some(tampered),
            digest: Some(fnv(&unit.report)),
        };
        assert_eq!(
            headline_unit(Scale::Tiny, SEED, false, &reference)
                .failures
                .len(),
            1
        );
    }

    #[test]
    fn slo_search_rebuilds_repro_and_the_decorator_is_transparent() {
        let reports = slo_search_at(
            Scale::Tiny,
            false,
            QueuePolicy::Fifo,
            SEED,
            SLO_P99_US,
            SLO_ITERATIONS,
        );
        let repro = slo_to_json(&reports, Scale::Tiny, false, QueuePolicy::Fifo, SEED);
        let plain = slo_unit(Scale::Tiny, SEED, false, &Reference::default());
        instr::enable();
        let wrapped = slo_unit(Scale::Tiny, SEED, true, &Reference::default());
        assert_eq!(plain.report, repro);
        assert_eq!(wrapped.report, repro);
        let spans = instr::drain();
        assert!(
            spans.iter().any(|s| s.name == "nmp.hit"),
            "the decorator saw memo hits"
        );
        assert!(spans.iter().any(|s| s.name == "serve.probe"));
    }

    #[test]
    fn traced_point_rebuilds_repro_and_the_decorator_is_transparent() {
        let (writer, written) = CountingWriter::new();
        let opts = TraceOptions {
            stream: Some(Box::new(writer)),
            agg: true,
            buffered: false,
        };
        let mix = tenant_mix();
        let p = traced_point_with(
            Scale::Tiny,
            "ReCross",
            Some(&mix),
            TENANT_LOAD,
            false,
            QueuePolicy::Edf,
            SEED,
            true,
            opts,
        )
        .unwrap();
        let repro = tenant_report(&p, Scale::Tiny, SEED, written());

        let plain = tenant_unit(Scale::Tiny, SEED, false, &Reference::default());
        instr::enable();
        // The traced unit also re-serves the point untraced and replays
        // every command stream through the DRAM checker.
        let wrapped = tenant_unit(Scale::Tiny, SEED, true, &Reference::default());
        assert_eq!(plain.report, repro);
        assert_eq!(wrapped.report, repro);
        assert!(wrapped.failures.is_empty(), "{:?}", wrapped.failures);
        assert!(wrapped.counts["dram.commands"] > 0.0);
        assert_eq!(wrapped.counts["dram.violations"], 0.0);

        let corrupted = Reference {
            cycles: None,
            digest: Some(fnv(&plain.report) ^ 1),
        };
        assert_eq!(
            tenant_unit(Scale::Tiny, SEED, false, &corrupted)
                .failures
                .len(),
            1
        );
    }
}
